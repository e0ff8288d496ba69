package sched

import (
	"math"
	"math/rand"
	"testing"

	"biglittle/internal/event"
	"biglittle/internal/platform"
)

func newSys() (*event.Engine, *System) {
	eng := event.New()
	soc := platform.Exynos5422()
	s := New(eng, soc, DefaultConfig())
	s.Start()
	return eng, s
}

func TestSingleTaskExecutes(t *testing.T) {
	eng, s := newSys()
	task := s.NewTask("t", 2.0)
	var doneAt event.Time
	task.OnIdle = func(now event.Time) { doneAt = now }

	// Little cluster starts at 500 MHz: 0.5 cycles/ns -> 1e6 cycles = 2 ms.
	s.Push(task, 1e6)
	eng.Run(10 * event.Millisecond)

	if doneAt == 0 {
		t.Fatal("task never completed")
	}
	want := 2 * event.Millisecond
	if doneAt < want || doneAt > want+event.Millisecond {
		t.Fatalf("completed at %v, want ~%v", doneAt, want)
	}
	if task.CurState() != Sleeping || task.CPU() != -1 {
		t.Fatalf("task state %v cpu %d after drain", task.CurState(), task.CPU())
	}
	if math.Abs(task.TotalWork-1e6) > 1 {
		t.Fatalf("TotalWork %.1f, want 1e6", task.TotalWork)
	}
	if task.SegmentsDone != 1 {
		t.Fatalf("SegmentsDone %d, want 1", task.SegmentsDone)
	}
}

func TestSegmentFIFO(t *testing.T) {
	eng, s := newSys()
	task := s.NewTask("t", 1)
	segments := 0
	task.OnSegment = func(event.Time) { segments++ }
	idles := 0
	task.OnIdle = func(event.Time) { idles++ }
	s.Push(task, 1000)
	s.Push(task, 1000)
	s.Push(task, 1000)
	if task.Queued() != 2 {
		t.Fatalf("Queued = %d, want 2", task.Queued())
	}
	eng.Run(20 * event.Millisecond)
	if segments != 3 || idles != 1 {
		t.Fatalf("segments %d idles %d, want 3/1", segments, idles)
	}
}

func TestPushWhileRunningExtends(t *testing.T) {
	eng, s := newSys()
	task := s.NewTask("t", 1)
	total := 0.0
	task.OnIdle = func(event.Time) { total = task.TotalWork }
	s.Push(task, 1e5)
	eng.Run(event.Microsecond * 50)
	s.Push(task, 1e5) // still running the first segment
	eng.Run(50 * event.Millisecond)
	if math.Abs(total-2e5) > 1 {
		t.Fatalf("TotalWork %.1f, want 2e5", total)
	}
}

func TestBigCoreSpeedup(t *testing.T) {
	eng := event.New()
	soc := platform.Exynos5422()
	s := New(eng, soc, DefaultConfig())
	s.Start()
	s.SetClusterFreq(0, 1300)
	s.SetClusterFreq(1, 1300)

	little := s.NewTask("l", 2.0)
	var littleDone event.Time
	little.OnIdle = func(now event.Time) { littleDone = now }
	s.Push(little, 13e6) // 10 ms on little @1.3GHz

	// White-box: place an identical task directly on a big core.
	bigTask := s.NewTask("b", 2.0)
	var bigDone event.Time
	bigTask.OnIdle = func(now event.Time) { bigDone = now }
	bigTask.tracker.Set(500) // between thresholds: HMP leaves it on big
	bigTask.state = Runnable
	bigTask.cpu, bigTask.lastCPU = 4, 4
	bigTask.remaining = 13e6
	s.cpus[4].queue = append(s.cpus[4].queue, bigTask)
	s.dispatch(s.cpus[4], 0)

	eng.Run(100 * event.Millisecond)
	if littleDone == 0 || bigDone == 0 {
		t.Fatal("tasks did not finish")
	}
	ratio := float64(littleDone) / float64(bigDone)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("big core speedup %.2f, want ~2.0 (little %v big %v)", ratio, littleDone, bigDone)
	}
}

func TestFrequencyChangeMidFlight(t *testing.T) {
	eng, s := newSys()
	task := s.NewTask("t", 1)
	var doneAt event.Time
	task.OnIdle = func(now event.Time) { doneAt = now }
	// 5.2e6 cycles: at 500MHz would take 10.4 ms; we double frequency to
	// 1000MHz at t=2ms, so: 1e6 done by 2ms, remaining 4.2e6 at 1.0/ns
	// -> finishes ~6.2ms.
	s.Push(task, 5.2e6)
	eng.At(2*event.Millisecond, func(event.Time) { s.SetClusterFreq(0, 1000) })
	eng.Run(20 * event.Millisecond)
	want := event.Time(6.2 * float64(event.Millisecond))
	if doneAt < want-event.Millisecond/2 || doneAt > want+event.Millisecond/2 {
		t.Fatalf("completed at %v, want ~%v", doneAt, want)
	}
}

func TestRoundRobinShares(t *testing.T) {
	eng, s := newSys()
	// Force both onto core 0 by saturating: push both at t=0; wake placement
	// puts them on different idle cores, so instead use one core cluster.
	cfg := platform.CoreConfig{Little: 1}
	if err := cfg.Apply(s.SoC); err != nil {
		t.Fatal(err)
	}
	a := s.NewTask("a", 1)
	b := s.NewTask("b", 1)
	s.Push(a, 1e9)
	s.Push(b, 1e9)
	eng.Run(100 * event.Millisecond)
	if a.TotalWork == 0 || b.TotalWork == 0 {
		t.Fatal("a task starved")
	}
	share := a.TotalWork / (a.TotalWork + b.TotalWork)
	if share < 0.4 || share > 0.6 {
		t.Fatalf("unfair sharing: a got %.2f of work", share)
	}
}

func TestLoadBalanceSpreads(t *testing.T) {
	eng, s := newSys()
	// Two CPU-bound tasks pushed at the same instant onto the little
	// cluster must end up on different cores within a few ticks.
	a := s.NewTask("a", 1)
	b := s.NewTask("b", 1)
	s.Push(a, 1e9)
	s.Push(b, 1e9)
	eng.Run(20 * event.Millisecond)
	if a.CPU() == b.CPU() {
		t.Fatalf("both tasks on cpu %d after 20ms", a.CPU())
	}
}

func TestHMPUpMigration(t *testing.T) {
	eng, s := newSys()
	s.SetClusterFreq(0, 1300) // full freqScale so load can reach 1024
	task := s.NewTask("hog", 1.5)
	s.Push(task, 1e12)
	eng.Run(40 * event.Millisecond)
	if s.SoC.Cores[task.CPU()].Type != platform.Little {
		t.Fatal("migrated before load history warranted it")
	}
	eng.Run(200 * event.Millisecond)
	if got := s.SoC.Cores[task.CPU()].Type; got != platform.Big {
		t.Fatalf("CPU-bound task on %v core after 200ms (load %d)", got, task.Load())
	}
	if task.Migrations == 0 {
		t.Fatal("no HMP migration recorded")
	}
}

func TestHMPDownMigration(t *testing.T) {
	eng, s := newSys()
	task := s.NewTask("light", 1)
	// White-box: park a low-load task on a big core.
	task.tracker.Set(100) // below down-threshold 256
	task.state = Runnable
	task.cpu, task.lastCPU = 4, 4
	task.remaining = 1e12
	s.cpus[4].queue = append(s.cpus[4].queue, task)
	s.dispatch(s.cpus[4], 0)
	eng.Run(5 * event.Millisecond)
	if got := s.SoC.Cores[task.CPU()].Type; got != platform.Little {
		t.Fatalf("low-load task still on %v core (load %d)", got, task.Load())
	}
}

func TestNoUpMigrationWithoutBigCores(t *testing.T) {
	eng, s := newSys()
	if err := (platform.CoreConfig{Little: 4}).Apply(s.SoC); err != nil {
		t.Fatal(err)
	}
	s.SetClusterFreq(0, 1300)
	task := s.NewTask("hog", 2)
	s.Push(task, 1e12)
	eng.Run(300 * event.Millisecond)
	if s.SoC.Cores[task.CPU()].Type != platform.Little {
		t.Fatal("task migrated to an offline big core")
	}
}

func TestWakePlacementPrefersIdlePrev(t *testing.T) {
	eng, s := newSys()
	task := s.NewTask("t", 1)
	s.Push(task, 1e5)
	eng.Run(5 * event.Millisecond)
	first := task.lastCPU
	s.Push(task, 1e5)
	if task.CPU() != first {
		t.Fatalf("woke on cpu %d, want previous idle cpu %d", task.CPU(), first)
	}
	eng.Run(10 * event.Millisecond)
}

func TestWakePlacementHighLoadGoesBig(t *testing.T) {
	_, s := newSys()
	task := s.NewTask("t", 1)
	task.tracker.Set(900)
	s.Push(task, 1e6)
	if got := s.SoC.Cores[task.CPU()].Type; got != platform.Big {
		t.Fatalf("high-load wake placed on %v", got)
	}
}

func TestBusyAccounting(t *testing.T) {
	eng, s := newSys()
	task := s.NewTask("t", 1)
	// 50% duty: 1ms of work at 500MHz = 5e5 cycles, every 2 ms.
	var gen func(now event.Time)
	gen = func(now event.Time) {
		s.Push(task, 5e5)
		eng.At(now+2*event.Millisecond, gen)
	}
	gen(0)
	eng.Run(100 * event.Millisecond)
	s.SyncAll(eng.Now())
	var busy event.Time
	for id := range s.SoC.Cores {
		busy += s.BusyNs(id)
	}
	frac := float64(busy) / float64(100*event.Millisecond)
	if frac < 0.45 || frac > 0.55 {
		t.Fatalf("busy fraction %.3f, want ~0.5", frac)
	}
}

func TestLoadTracksDuty(t *testing.T) {
	eng, s := newSys()
	s.SetClusterFreq(0, 1300)
	task := s.NewTask("t", 1)
	var gen func(now event.Time)
	gen = func(now event.Time) {
		s.Push(task, 13e5*0.3) // 0.3 ms at 1.3GHz
		eng.At(now+event.Millisecond, gen)
	}
	gen(0)
	eng.Run(500 * event.Millisecond)
	// 30% duty at full frequency: load should hover near 0.3*1024 = 307.
	if l := task.Load(); l < 200 || l > 420 {
		t.Fatalf("load %d, want ~307", l)
	}
}

func TestZeroPushIgnored(t *testing.T) {
	eng, s := newSys()
	task := s.NewTask("t", 1)
	s.Push(task, 0)
	s.Push(task, -5)
	if task.CurState() != Sleeping {
		t.Fatal("zero push woke task")
	}
	eng.Run(5 * event.Millisecond)
}

func TestSpeedupClamped(t *testing.T) {
	_, s := newSys()
	task := s.NewTask("t", 0.5)
	if task.Speedup != 1 {
		t.Fatalf("speedup %f not clamped to 1", task.Speedup)
	}
}

func TestStateString(t *testing.T) {
	if Sleeping.String() != "sleeping" || Runnable.String() != "runnable" || Running.String() != "running" {
		t.Fatal("State.String mismatch")
	}
}

// Property: work conservation — after everything drains, executed work
// equals pushed work for every task, regardless of migrations, frequency
// changes, and contention.
func TestPropertyWorkConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 10; iter++ {
		eng, s := newSys()
		n := 2 + rng.Intn(6)
		pushed := make([]float64, n)
		tasks := make([]*Task, n)
		for i := 0; i < n; i++ {
			tasks[i] = s.NewTask("t", 1+rng.Float64())
		}
		// Random pushes over the first 200 ms.
		for k := 0; k < 30; k++ {
			i := rng.Intn(n)
			w := float64(1+rng.Intn(20)) * 1e5
			at := event.Time(rng.Intn(200)) * event.Millisecond
			pushed[i] += w
			eng.At(at, func(event.Time) { s.Push(tasks[i], w) })
		}
		// Random frequency changes.
		for k := 0; k < 10; k++ {
			cl := rng.Intn(2)
			mhz := 500 + rng.Intn(1500)
			at := event.Time(rng.Intn(200)) * event.Millisecond
			eng.At(at, func(event.Time) { s.SetClusterFreq(cl, mhz) })
		}
		eng.Run(3 * event.Second)
		for i := 0; i < n; i++ {
			if tasks[i].CurState() != Sleeping {
				t.Fatalf("iter %d: task %d not drained (state %v, remaining %.0f)",
					iter, i, tasks[i].CurState(), tasks[i].remaining)
			}
			if math.Abs(tasks[i].TotalWork-pushed[i]) > 1 {
				t.Fatalf("iter %d: task %d executed %.1f, pushed %.1f",
					iter, i, tasks[i].TotalWork, pushed[i])
			}
		}
	}
}

// Property: run-queue invariants hold at every tick — each non-sleeping task
// is on exactly one queue, heads are Running, others Runnable, and offline
// cores have empty queues.
func TestPropertyQueueInvariants(t *testing.T) {
	eng, s := newSys()
	rng := rand.New(rand.NewSource(11))
	tasks := make([]*Task, 6)
	for i := range tasks {
		tasks[i] = s.NewTask("t", 1.5)
		var gen func(now event.Time)
		i := i
		gen = func(now event.Time) {
			s.Push(tasks[i], float64(1+rng.Intn(30))*1e4)
			eng.At(now+event.Time(1+rng.Intn(10))*event.Millisecond, gen)
		}
		eng.At(event.Time(rng.Intn(5))*event.Millisecond, gen)
	}
	violations := 0
	s.OnTick(func(now event.Time) {
		seen := map[*Task]int{}
		for _, c := range s.cpus {
			for qi, task := range c.queue {
				seen[task]++
				if task.cpu != c.id {
					violations++
				}
				if qi == 0 && task.state != Running {
					violations++
				}
				if qi > 0 && task.state != Runnable {
					violations++
				}
			}
		}
		for _, task := range tasks {
			switch task.state {
			case Sleeping:
				if seen[task] != 0 {
					violations++
				}
			default:
				if seen[task] != 1 {
					violations++
				}
			}
		}
	})
	eng.Run(2 * event.Second)
	if violations != 0 {
		t.Fatalf("%d queue invariant violations", violations)
	}
}

func BenchmarkSchedulerTick(b *testing.B) {
	eng, s := newSys()
	for i := 0; i < 8; i++ {
		task := s.NewTask("t", 1.5)
		var gen func(now event.Time)
		gen = func(now event.Time) {
			s.Push(task, 3e5)
			eng.At(now+2*event.Millisecond, gen)
		}
		gen(0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Run(eng.Now() + event.Millisecond)
	}
}

func TestCoreBusyFraction(t *testing.T) {
	if CoreBusyFraction(0, 50, 100) != 0.5 {
		t.Fatal("fraction")
	}
	if CoreBusyFraction(50, 40, 100) != 0 {
		t.Fatal("negative delta not clamped")
	}
	if CoreBusyFraction(0, 200, 100) != 1 {
		t.Fatal("overflow not clamped")
	}
	if CoreBusyFraction(0, 10, 0) != 0 {
		t.Fatal("zero interval")
	}
}

func TestQueueLenAndOnCPUType(t *testing.T) {
	eng, s := newSys()
	task := s.NewTask("t", 1)
	if s.OnCPUType(task) != platform.Little {
		t.Fatal("sleeping task default type")
	}
	s.Push(task, 1e6)
	if s.QueueLen(task.CPU()) != 1 {
		t.Fatal("queue length")
	}
	eng.Run(10 * event.Millisecond)
}

func TestMoveToTypeNoOps(t *testing.T) {
	eng, s := newSys()
	task := s.NewTask("t", 1)
	s.MoveToType(task, platform.Big) // sleeping: no-op, no panic
	s.Push(task, 1e9)
	cur := task.CPU()
	s.MoveToType(task, s.SoC.Cores[cur].Type) // same type: no-op
	if task.CPU() != cur {
		t.Fatal("same-type move relocated the task")
	}
	pinned := s.NewTask("p", 1)
	pinned.Pin(0)
	s.Push(pinned, 1e9)
	s.MoveToType(pinned, platform.Big)
	if s.SoC.Cores[pinned.CPU()].Type != platform.Little {
		t.Fatal("pinned task moved")
	}
	eng.Run(5 * event.Millisecond)
}

func TestSetCoreOnlineRoundTrip(t *testing.T) {
	eng, s := newSys()
	if err := s.SetCoreOnline(7, false); err != nil {
		t.Fatal(err)
	}
	if s.SoC.Cores[7].Online {
		t.Fatal("still online")
	}
	if err := s.SetCoreOnline(7, true); err != nil {
		t.Fatal(err)
	}
	// Offlining the last little core must fail through the System API too.
	for id := 1; id < 4; id++ {
		if err := s.SetCoreOnline(id, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SetCoreOnline(0, false); err == nil {
		t.Fatal("last little core went offline")
	}
	eng.Run(5 * event.Millisecond)
}

func TestBoostOnlyRaises(t *testing.T) {
	_, s := newSys()
	task := s.NewTask("t", 1)
	task.Boost(500)
	if task.Load() != 500 {
		t.Fatalf("load %d after boost", task.Load())
	}
	task.Boost(300) // lower boost must not reduce the load
	if task.Load() != 500 {
		t.Fatalf("load %d after weaker boost", task.Load())
	}
}

// Property: hotplug never takes the last little core offline (§II), however
// a governor churns cores — 10k random decisions under load, with and
// without deep idle. The deep-idle variant also regresses the wake window:
// a task paying its deep-idle exit latency must not land on a core that was
// hotplugged offline in the meantime.
func TestPropertyHotplugNeverKillsLastLittle(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()},
		{"deep-idle", func() Config {
			c := DefaultConfig()
			c.DeepIdleAfter = 500 * event.Microsecond
			c.DeepIdleWake = 100 * event.Microsecond
			return c
		}()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := event.New()
			soc := platform.Exynos5422()
			s := New(eng, soc, tc.cfg)
			s.Start()
			rng := rand.New(rand.NewSource(42))

			const n = 6
			tasks := make([]*Task, n)
			for i := range tasks {
				tasks[i] = s.NewTask("t", 1.5)
			}

			decisions := 0
			s.OnTick(func(now event.Time) {
				// Intermittent work keeps tasks cycling through sleep, deep
				// idle, and the waking window while cores churn beneath them.
				if rng.Intn(3) == 0 {
					s.Push(tasks[rng.Intn(n)], float64(1+rng.Intn(5))*1e5)
				}
				for k := 0; k < 10; k++ {
					id := rng.Intn(len(soc.Cores))
					online := rng.Intn(2) == 0
					err := s.SetCoreOnline(id, online)
					decisions++
					if soc.OnlineCount(platform.Little) < 1 {
						t.Fatalf("decision %d at %v: SetCoreOnline(%d, %v) err=%v left no little core online",
							decisions, now, id, online, err)
					}
				}
				for i, tk := range tasks {
					st := tk.CurState()
					if st != Runnable && st != Running {
						continue
					}
					if cpu := tk.CPU(); cpu < 0 || !soc.Cores[cpu].Online {
						t.Fatalf("at %v: task %d is %v on offline core %d", now, i, st, tk.CPU())
					}
				}
			})
			eng.Run(event.Second) // 1000 ticks x 10 decisions
			if decisions < 10000 {
				t.Fatalf("only %d hotplug decisions exercised, want >= 10000", decisions)
			}
			// Refusals must come back as errors, not silent constraint breaks.
			for id := 0; id < 4; id++ {
				s.SetCoreOnline(id, true)
			}
			for id := 1; id < 4; id++ {
				if err := s.SetCoreOnline(id, false); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.SetCoreOnline(0, false); err == nil {
				t.Fatal("offlining the last little core did not error")
			}
		})
	}
}
