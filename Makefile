# Convenience targets; everything is plain `go` underneath.

.PHONY: build test test-race bench bench-smoke bench-baseline bench-compare bench-record xray-smoke diff-smoke profile-single serve-smoke fleet-smoke fork-smoke explore-smoke report quick-report report-par cover fuzz-smoke golden-update fmt vet all

all: build vet test test-race

build:
	go build ./...

test:
	go test ./...

test-race:
	go test -race ./...

bench:
	go test -bench=. -benchmem ./...

# One iteration of every benchmark — catches bit-rot without timing anything.
bench-smoke:
	go test -run '^$$' -bench=. -benchtime=1x ./...

# The perf-regression gate (see DESIGN.md "Performance"). bench-baseline
# measures the tracked benchmarks -count=6 and records the medians-ready raw
# output into BENCH_baseline.json; bench-compare re-measures and fails if a
# gated benchmark's median regressed >10% (time only on the same CPU model;
# allocs/op everywhere — it is machine-independent). The gate runs at a fixed
# GOMAXPROCS because some benchmarks' allocs/op grow with the worker count;
# the baseline was measured at -cpu 2.
GATED_CPU = 2
GATED_BENCH = BenchmarkSingleRun|BenchmarkFig2Speedup|BenchmarkFig3SpecPower|BenchmarkDigestOff|BenchmarkDigestOn|BenchmarkForkSweep|BenchmarkExplore

bench-baseline:
	go test -run '^$$' -bench '$(GATED_BENCH)' -benchmem -cpu $(GATED_CPU) -count 6 . | tee /tmp/blbench-baseline.txt
	go run ./cmd/blbench record -out BENCH_baseline.json /tmp/blbench-baseline.txt

bench-compare:
	go test -run '^$$' -bench '$(GATED_BENCH)' -benchmem -cpu $(GATED_CPU) -count 6 . | tee /tmp/blbench-new.txt
	go run ./cmd/blbench compare -baseline BENCH_baseline.json \
		-critical '^($(GATED_BENCH))$$' -max-regress 10 /tmp/blbench-new.txt

# Append today's gated-benchmark medians to the committed trend file and
# print the trend. Reuses the measurement bench-compare just made when
# /tmp/blbench-new.txt exists, so `make bench-compare bench-record` measures
# once; standalone it measures fresh.
bench-record:
	@[ -s /tmp/blbench-new.txt ] || \
		go test -run '^$$' -bench '$(GATED_BENCH)' -benchmem -cpu $(GATED_CPU) -count 6 . | tee /tmp/blbench-new.txt
	go run ./cmd/blbench history -append -file BENCH_history.jsonl \
		-rev $$(git rev-parse --short HEAD 2>/dev/null || echo unknown) /tmp/blbench-new.txt
	go run ./cmd/blbench history -file BENCH_history.jsonl

# Capture CPU and allocation profiles of the single-run hot path; DESIGN.md
# "Performance" explains how to read them.
profile-single:
	go test -run '^$$' -bench BenchmarkSingleRun -benchtime 200x \
		-cpuprofile /tmp/biglittle-cpu.prof -memprofile /tmp/biglittle-mem.prof .
	@echo "profile-single: go tool pprof -top /tmp/biglittle-cpu.prof"
	@echo "profile-single: go tool pprof -top -sample_index=alloc_objects /tmp/biglittle-mem.prof"

# Boot blserve on a short free-running session and assert the observability
# endpoints actually serve: Prometheus text with per-task gauges, and a JSON
# snapshot with an attribution table.
serve-smoke:
	go build -o /tmp/blserve ./cmd/blserve
	/tmp/blserve -addr 127.0.0.1:9814 -phases browser:2s -repeat 1 -speed 0 & \
		pid=$$!; \
		sleep 2; \
		ok=0; \
		curl -fsS 127.0.0.1:9814/metrics | grep -q '^biglittle_task_' && \
		curl -fsS 127.0.0.1:9814/metrics | grep -q 'quantile=' && \
		curl -fsS 127.0.0.1:9814/snapshot | grep -q '"tasks"' && ok=1; \
		kill -INT $$pid; wait $$pid; \
		[ $$ok -eq 1 ] && echo "serve-smoke: OK"

# End-to-end smoke of the distributed lab: a coordinator-only blserve, two
# blworker processes, and a small sweep routed through the fleet (-remote)
# must (a) emit CSV byte-identical to the same sweep in-process, (b) have
# actually executed on the fleet (nonzero "remote" in the lab stats), and
# (c) leave the Prometheus endpoint reporting zero failed fleet jobs.
# Teardown is SIGINT, so the graceful-drain path runs too.
fleet-smoke:
	go build -o /tmp/blserve ./cmd/blserve
	go build -o /tmp/blworker ./cmd/blworker
	go build -o /tmp/blsweep ./cmd/blsweep
	w1=$$(mktemp -d); w2=$$(mktemp -d); \
		/tmp/blserve -addr 127.0.0.1:9815 -phases none -fleet-no-cache & spid=$$!; \
		sleep 1; \
		/tmp/blworker -coordinator http://127.0.0.1:9815 -id w1 -cache-dir $$w1 & p1=$$!; \
		/tmp/blworker -coordinator http://127.0.0.1:9815 -id w2 -cache-dir $$w2 & p2=$$!; \
		/tmp/blsweep -param sample-ms -values 10,20,40,60 -app bbench -duration 2s -no-cache \
			-remote http://127.0.0.1:9815 >/tmp/fleet-remote.csv 2>/tmp/fleet-remote.log; \
		/tmp/blsweep -param sample-ms -values 10,20,40,60 -app bbench -duration 2s -no-cache \
			>/tmp/fleet-local.csv 2>/dev/null; \
		curl -fsS 127.0.0.1:9815/metrics > /tmp/fleet-metrics.txt; \
		kill -INT $$p1 $$p2; wait $$p1 $$p2; \
		kill -INT $$spid; wait $$spid; \
		cat /tmp/fleet-remote.log; \
		rm -rf $$w1 $$w2; \
		cmp /tmp/fleet-remote.csv /tmp/fleet-local.csv || { echo "fleet-smoke: fleet and in-process sweeps differ" >&2; exit 1; }; \
		grep -Eq '[1-9][0-9]* remote' /tmp/fleet-remote.log || { echo "fleet-smoke: sweep did not execute on the fleet" >&2; exit 1; }; \
		grep -q '^biglittle_fleet_jobs_failed_total 0$$' /tmp/fleet-metrics.txt || { echo "fleet-smoke: fleet reported failed jobs" >&2; exit 1; }; \
		echo "fleet-smoke: OK"

# End-to-end smoke of snapshot-accelerated sweeps: (a) forking the sweep's
# base value must reproduce the cold run byte-for-byte, (b) a multi-value
# forked sweep must share one warmed prefix (nonzero reuse in the lab
# stats), and (c) a second sweep over new values against the same cache must
# load that prefix from the disk tier instead of re-simulating it.
fork-smoke:
	go build -o /tmp/blsweep ./cmd/blsweep
	dir=$$(mktemp -d); \
		/tmp/blsweep -param sample-ms -values 20 -app encoder -duration 2s -no-cache >/tmp/fork-cold.csv 2>/dev/null; \
		/tmp/blsweep -param sample-ms -values 20 -app encoder -duration 2s -no-cache -fork-at 1500ms >/tmp/fork-base.csv 2>/tmp/fork-base.log; \
		/tmp/blsweep -param sample-ms -values 10,20,40,60 -app encoder -duration 2s -no-cache -fork-at 1500ms >/tmp/fork-sweep.csv 2>/tmp/fork-sweep.log; \
		/tmp/blsweep -param sample-ms -values 10,40 -app encoder -duration 2s -cache-dir $$dir -fork-at 1500ms >/dev/null 2>/tmp/fork-disk1.log; \
		/tmp/blsweep -param sample-ms -values 60,80 -app encoder -duration 2s -cache-dir $$dir -fork-at 1500ms >/dev/null 2>/tmp/fork-disk2.log; \
		cat /tmp/fork-base.log /tmp/fork-sweep.log /tmp/fork-disk1.log /tmp/fork-disk2.log; \
		rm -rf $$dir; \
		cmp /tmp/fork-cold.csv /tmp/fork-base.csv || { echo "fork-smoke: forked base run differs from the cold run" >&2; exit 1; }; \
		grep -q 'fork: 4 continuations: 1 prefixes simulated, 3 reused' /tmp/fork-sweep.log || { echo "fork-smoke: sweep did not share one prefix" >&2; exit 1; }; \
		grep -q 'fork: 2 continuations: 0 prefixes simulated, 2 reused' /tmp/fork-disk2.log || { echo "fork-smoke: prefix not reloaded from the disk tier" >&2; exit 1; }; \
		echo "fork-smoke: OK"

# End-to-end smoke of the design-space explorer: on a small
# screening-faithful space, the successive-halving ladder must (a) find the
# exact frontier the exhaustive sweep finds (-verify-exhaustive exits 1
# otherwise), (b) actually prune candidates along the way, and (c) replay
# byte-identically from the cache the first run warmed, simulating nothing.
explore-smoke:
	go build -o /tmp/blexplore ./cmd/blexplore
	dir=$$(mktemp -d); \
		/tmp/blexplore -app fifa15 -duration 2s -objective edp -eta 2 -keep 3 \
			-dim 'governor=interactive,performance,powersave,userspace,ondemand,conservative,past' \
			-cache-dir $$dir -verify-exhaustive >/tmp/explore-cold.txt 2>/tmp/explore-cold.log; \
		/tmp/blexplore -app fifa15 -duration 2s -objective edp -eta 2 -keep 3 \
			-dim 'governor=interactive,performance,powersave,userspace,ondemand,conservative,past' \
			-cache-dir $$dir -verify-exhaustive >/tmp/explore-warm.txt 2>/tmp/explore-warm.log; \
		cat /tmp/explore-cold.log /tmp/explore-warm.log; \
		rm -rf $$dir; \
		grep -q 'frontier matches exhaustive' /tmp/explore-cold.txt || { echo "explore-smoke: frontier differs from exhaustive" >&2; exit 1; }; \
		grep -Eq 'pruned [1-9]' /tmp/explore-cold.txt || { echo "explore-smoke: ladder pruned nothing" >&2; exit 1; }; \
		grep -Eq ' 0 simulated' /tmp/explore-warm.log || { echo "explore-smoke: warm re-run still simulated" >&2; exit 1; }; \
		cmp /tmp/explore-cold.txt /tmp/explore-warm.txt || { echo "explore-smoke: warm report differs from cold" >&2; exit 1; }; \
		echo "explore-smoke: OK"

# End-to-end smoke of the causal decision tracer: record a golden-config
# run with -xray, then require blxray to reconstruct a placement decision
# (inputs + candidate table with a chosen core) and to walk a migration's
# causal chain back to the wake that started it.
xray-smoke:
	go build -o /tmp/blsim ./cmd/blsim
	go build -o /tmp/blxray ./cmd/blxray
	/tmp/blsim -app bbench -duration 4s -seed 1 -xray /tmp/blxray-smoke.json > /dev/null
	/tmp/blxray explain -in /tmp/blxray-smoke.json -task bb.js > /tmp/blxray-explain.txt
	grep -q 'candidates:' /tmp/blxray-explain.txt
	grep -q 'CHOSEN' /tmp/blxray-explain.txt
	/tmp/blxray chain -in /tmp/blxray-smoke.json -migration 1 > /tmp/blxray-chain.txt
	grep -q 'wake' /tmp/blxray-chain.txt
	@echo "xray-smoke: OK"

# End-to-end smoke of the differential forensics tool: a seeded A/B pair
# differing in one HMP threshold must diff to a located first divergent
# decision (exit 1), and an identical pair must report "identical" (exit 0).
diff-smoke:
	go build -o /tmp/bldiff ./cmd/bldiff
	/tmp/bldiff run -app bbench -duration 2s -seed 1 -b up=350 > /tmp/bldiff-div.txt; \
		[ $$? -eq 1 ] || { echo "diff-smoke: divergent pair did not exit 1" >&2; exit 1; }
	grep -q 'first divergent window' /tmp/bldiff-div.txt
	grep -q 'first divergent decision' /tmp/bldiff-div.txt
	grep -q 'up_threshold' /tmp/bldiff-div.txt
	/tmp/bldiff run -app bbench -duration 2s -seed 1 > /tmp/bldiff-same.txt
	grep -q 'identical' /tmp/bldiff-same.txt
	@echo "diff-smoke: OK"

# Regenerate every paper table/figure plus the extension studies (~30s).
report:
	go run ./cmd/blreport

quick-report:
	go run ./cmd/blreport -quick

# Smoke-test the experiment orchestrator: run the quick report cold into a
# fresh cache, re-run warm, and assert (a) the warm run hit the cache and
# simulated nothing, (b) report stdout is byte-identical cold vs warm.
report-par:
	go build -o /tmp/blreport ./cmd/blreport
	dir=$$(mktemp -d); \
		/tmp/blreport -quick -cache-dir $$dir >/tmp/report-cold.txt 2>/tmp/report-cold.log; \
		/tmp/blreport -quick -cache-dir $$dir >/tmp/report-warm.txt 2>/tmp/report-warm.log; \
		cat /tmp/report-cold.log /tmp/report-warm.log; \
		rm -rf $$dir; \
		grep -Eq 'lab: [0-9]+ jobs: [1-9][0-9]* cache hits' /tmp/report-warm.log || { echo "report-par: warm run had no cache hits" >&2; exit 1; }; \
		grep -Eq ' 0 simulated' /tmp/report-warm.log || { echo "report-par: warm run still simulated" >&2; exit 1; }; \
		cmp /tmp/report-cold.txt /tmp/report-warm.txt || { echo "report-par: cold and warm output differ" >&2; exit 1; }; \
		echo "report-par: OK"

# Line-coverage floors for the simulation kernel packages. The profile can
# contain one copy of each block per test binary, so blocks are deduplicated
# by location before aggregating per package.
cover:
	go test -coverpkg=./internal/core,./internal/sched,./internal/platform,./internal/snapshot \
		-coverprofile=/tmp/biglittle-cover.out ./... > /dev/null
	awk 'NR>1 {key=$$1; stmts[key]=$$2; if ($$3>0) hit[key]=1} \
		END { \
			floors["biglittle/internal/core"]=90; \
			floors["biglittle/internal/sched"]=88; \
			floors["biglittle/internal/platform"]=90; \
			floors["biglittle/internal/snapshot"]=90; \
			bad=0; \
			for (k in stmts) {p=k; sub(/:.*/, "", p); sub(/\/[^\/]*$$/, "", p); total[p]+=stmts[k]; if (hit[k]) cov[p]+=stmts[k]} \
			for (p in floors) { \
				pct = total[p] ? 100*cov[p]/total[p] : 0; \
				status = pct >= floors[p] ? "ok" : "BELOW FLOOR"; \
				printf "cover: %-30s %5.1f%% (floor %d%%) %s\n", p, pct, floors[p], status; \
				if (pct < floors[p]) bad=1; \
			} \
			exit bad \
		}' /tmp/biglittle-cover.out

# 30 s of native fuzzing per target — a smoke pass over the parser and
# codec fuzzers, not a deep campaign (go test runs one -fuzz target at a
# time).
fuzz-smoke:
	go test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/spec/
	go test -run '^$$' -fuzz '^FuzzParseCoreConfig$$' -fuzztime 30s ./internal/platform/
	go test -run '^$$' -fuzz '^FuzzInts$$' -fuzztime 30s ./internal/cli/
	go test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s ./internal/snapshot/

# Regenerate the golden-master corpus after an intentional model change; the
# resulting testdata/golden diff documents exactly which numbers moved.
golden-update:
	go test -run TestGoldenMaster . -golden-update
	@echo "golden-update: testdata/golden regenerated — review the diff before committing"

fmt:
	gofmt -w .

vet:
	go vet ./...
