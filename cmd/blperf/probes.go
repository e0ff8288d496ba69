package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"biglittle"
)

// The probes run after a traced pass's workload, outside its CPU profile:
// direct, individually timed calls into one layer each.

// coreProbe times the simulation kernel: every app at its baseline config
// through Run (reading the engine's fired-event count through OnSystem),
// then the stepping API — assembly, resume from a mid-run snapshot, and
// Finish.
func coreProbe(seed int64, smoke bool) (map[string]float64, error) {
	apps, d := biglittle.Apps(), 30*biglittle.Second
	if smoke {
		apps, d = apps[:2], 2*biglittle.Second
	}
	var wall time.Duration
	var fired uint64
	var assemble, resume, finish []float64
	for _, app := range apps {
		cfg := biglittle.DefaultConfig(app)
		cfg.Seed = seed
		cfg.Duration = d

		var sys *biglittle.SchedSystem
		probe := cfg
		probe.OnSystem = func(s *biglittle.SchedSystem) { sys = s }
		t := time.Now()
		biglittle.Run(probe)
		wall += time.Since(t)
		fired += sys.Eng.Fired()

		t = time.Now()
		sim, err := biglittle.NewSim(cfg)
		assemble = append(assemble, us(time.Since(t)))
		if err != nil {
			return nil, fmt.Errorf("core probe: %w", err)
		}
		sim.RunTo(d / 2)
		st, err := sim.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("core probe: %w", err)
		}
		t = time.Now()
		resumed, err := biglittle.Resume(cfg, st)
		resume = append(resume, us(time.Since(t)))
		if err != nil {
			return nil, fmt.Errorf("core probe: %w", err)
		}
		resumed.RunTo(d)
		t = time.Now()
		resumed.Finish()
		finish = append(finish, us(time.Since(t)))
	}
	simS := float64(len(apps)) * d.Seconds()
	return map[string]float64{
		"core.ms_per_sim_s":     ms(wall) / simS,
		"core.events_per_sim_s": float64(fired) / simS,
		"core.ns_per_event":     ratio(float64(wall), float64(fired)),
		"core.assemble_us":      median(assemble),
		"core.resume_us":        median(resume),
		"core.finish_us":        median(finish),
	}, nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// snapshotProbe times the snapshot codec on each fork-sweep prefix —
// capture, encode, decode, blob size — and the disk-tier load the runner
// performs for every stored prefix (GetPrefix, which validates by decoding,
// then the runner's own Decode).
func snapshotProbe(p *pass, specs []*biglittle.LabForkSpec, cache *biglittle.LabCache, dir string) error {
	var capture, encode, decode, kb, load []float64
	for _, spec := range specs {
		sim, err := biglittle.NewSim(spec.Base)
		if err != nil {
			return fmt.Errorf("snapshot probe: %w", err)
		}
		sim.RunTo(spec.At)
		t := time.Now()
		st, err := sim.Snapshot()
		capture = append(capture, ms(time.Since(t)))
		if err != nil {
			return fmt.Errorf("snapshot probe: %w", err)
		}
		t = time.Now()
		blob, err := biglittle.EncodeSnapshot(st)
		encode = append(encode, ms(time.Since(t)))
		if err != nil {
			return fmt.Errorf("snapshot probe: %w", err)
		}
		kb = append(kb, float64(len(blob))/1e3)
		t = time.Now()
		_, err = biglittle.DecodeSnapshot(blob)
		decode = append(decode, ms(time.Since(t)))
		if err != nil {
			return fmt.Errorf("snapshot probe: %w", err)
		}
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "*", "prefix", "*", "*.blsnap"))
	if err != nil {
		return err
	}
	for _, path := range blobs {
		key := strings.TrimSuffix(filepath.Base(path), ".blsnap")
		t := time.Now()
		blob, ok := cache.GetPrefix(key)
		if !ok {
			return fmt.Errorf("snapshot probe: stored prefix %s does not load", key)
		}
		if _, err := biglittle.DecodeSnapshot(blob); err != nil {
			return fmt.Errorf("snapshot probe: %w", err)
		}
		load = append(load, ms(time.Since(t)))
	}
	p.layer("snapshot.capture_ms", median(capture))
	p.layer("snapshot.encode_ms", median(encode))
	p.layer("snapshot.decode_ms", median(decode))
	p.layer("snapshot.blob_kb", median(kb))
	p.layer("lab.prefix_load_ms", median(load))
	return nil
}

// labProbe times the result cache on an exploration's rung-0 jobs, built
// exactly as the engine builds them: fingerprinting each job, reading its
// result back from the warm cache the exploration left, and storing it into
// an empty one.
func labProbe(p *pass, space biglittle.ExploreSpace, rungDur, forkAt biglittle.Time, cache *biglittle.LabCache) error {
	fresh, err := biglittle.OpenLabCache(filepath.Join(p.dir, "probe"))
	if err != nil {
		return err
	}
	var spec *biglittle.LabForkSpec
	if forkAt > 0 {
		base := space.Base
		base.Duration = rungDur
		spec = &biglittle.LabForkSpec{Base: base, At: forkAt}
	}
	var fp, get, put []float64
	n := space.Size()
	for i := 0; i < n; i++ {
		cfg, err := space.Config(i)
		if err != nil {
			return err
		}
		cfg.Duration = rungDur
		job := biglittle.LabJob{Config: cfg, Fork: spec}
		t := time.Now()
		key, ok := biglittle.LabFingerprint(job)
		fp = append(fp, us(time.Since(t)))
		if !ok {
			return fmt.Errorf("lab probe: rung-0 job %d is not fingerprintable", i)
		}
		t = time.Now()
		res, hit := cache.Get(key)
		get = append(get, us(time.Since(t)))
		if !hit {
			return fmt.Errorf("lab probe: rung-0 job %d missing from the exploration's cache", i)
		}
		t = time.Now()
		err = fresh.Put(key, cfg.App.Name, "", res)
		put = append(put, us(time.Since(t)))
		if err != nil {
			return err
		}
	}
	p.layer("lab.fingerprint_us", median(fp))
	p.layer("lab.get_us", median(get))
	p.layer("lab.put_us", median(put))
	p.layer("lab.result_kb", dirMB(fresh.Dir())*1e3/float64(n))
	return nil
}
