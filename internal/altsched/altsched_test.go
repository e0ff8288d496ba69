package altsched

import (
	"testing"

	"biglittle/internal/event"
	"biglittle/internal/governor"
	"biglittle/internal/platform"
	"biglittle/internal/power"
	"biglittle/internal/sched"
)

func rig() (*event.Engine, *sched.System) {
	eng := event.New()
	sys := sched.New(eng, platform.Exynos5422(), sched.DefaultConfig())
	sys.Start()
	governor.NewInteractive(sys, governor.DefaultInteractive()).Start()
	return eng, sys
}

func hog(eng *event.Engine, sys *sched.System, name string, speedup float64) *sched.Task {
	t := sys.NewTask(name, speedup)
	sys.Push(t, 1e12)
	return t
}

// Efficiency-based: with more loaded threads than big cores, the highest-
// speedup threads win the big cores.
func TestEfficiencyRanksBySpeedup(t *testing.T) {
	eng, sys := rig()
	NewEfficiency(sys)
	// Six CPU hogs with distinct speedups; only 4 big cores exist.
	speedups := []float64{2.4, 2.2, 2.0, 1.8, 1.3, 1.1}
	tasks := make([]*sched.Task, len(speedups))
	for i, sp := range speedups {
		tasks[i] = hog(eng, sys, "hog", sp)
	}
	eng.Run(500 * event.Millisecond)
	for i, task := range tasks {
		got := sys.SoC.Cores[task.CPU()].Type
		want := platform.Big
		if i >= 4 {
			want = platform.Little
		}
		if got != want {
			t.Errorf("hog %d (speedup %.1f) on %v, want %v", i, speedups[i], got, want)
		}
	}
}

// Efficiency-based: sliver threads never occupy big cores.
func TestEfficiencyDemotesSlivers(t *testing.T) {
	eng, sys := rig()
	NewEfficiency(sys)
	sliver := sys.NewTask("sliver", 2.5) // high speedup but no load
	var gen func(now event.Time)
	gen = func(now event.Time) {
		sys.Push(sliver, 1e5)
		eng.At(now+20*event.Millisecond, gen)
	}
	gen(0)
	eng.Run(time1s)
	if sliver.BigRanNs > sliver.LittleRanNs/5 {
		t.Fatalf("sliver ran %v on big cores (little %v)", sliver.BigRanNs, sliver.LittleRanNs)
	}
}

const time1s = event.Second

// Parallelism-aware: a single CPU-bound thread (serial phase) runs on a big
// core.
func TestParallelismSerialPhaseGoesBig(t *testing.T) {
	eng, sys := rig()
	NewParallelism(sys)
	task := hog(eng, sys, "serial", 1.5)
	eng.Run(300 * event.Millisecond)
	if got := sys.SoC.Cores[task.CPU()].Type; got != platform.Big {
		t.Fatalf("serial thread on %v, want big", got)
	}
}

// Parallelism-aware: with abundant parallelism (more threads than big
// cores, fitting the little cluster... here exactly 4 + 4), threads use the
// little cores... our threshold: active > bigSlots -> little when fits.
func TestParallelismAbundantGoesLittle(t *testing.T) {
	eng, sys := rig()
	// Take one big core offline so 4 hogs exceed the 3 big slots but fit
	// the 4 little cores.
	if err := (platform.CoreConfig{Little: 4, Big: 3}).Apply(sys.SoC); err != nil {
		t.Fatal(err)
	}
	NewParallelism(sys)
	tasks := make([]*sched.Task, 4)
	for i := range tasks {
		tasks[i] = hog(eng, sys, "par", 2.0)
	}
	eng.Run(300 * event.Millisecond)
	for i, task := range tasks {
		if got := sys.SoC.Cores[task.CPU()].Type; got != platform.Little {
			t.Errorf("parallel thread %d on %v, want little", i, got)
		}
	}
}

// Parallelism-aware: oversubscription spills the highest-load threads to
// big cores.
func TestParallelismOversubscribedSpills(t *testing.T) {
	eng, sys := rig()
	NewParallelism(sys)
	for i := 0; i < 6; i++ {
		hog(eng, sys, "many", 1.5)
	}
	eng.Run(400 * event.Millisecond)
	big := 0
	for _, task := range sys.Tasks() {
		if task.CPU() >= 0 && sys.SoC.Cores[task.CPU()].Type == platform.Big {
			big++
		}
	}
	if big == 0 {
		t.Fatal("no spill to big cores with 6 runnable hogs on 4 little cores")
	}
}

// The policies must respect hotplug: with no big cores online, everything
// stays on little cores and nothing panics.
func TestPoliciesWithoutBigCores(t *testing.T) {
	for _, attach := range []func(*sched.System){
		func(s *sched.System) { NewEfficiency(s) },
		func(s *sched.System) { NewParallelism(s) },
		func(s *sched.System) { NewEAS(s, power.Default()) },
	} {
		eng, sys := rig()
		if err := (platform.CoreConfig{Little: 4}).Apply(sys.SoC); err != nil {
			t.Fatal(err)
		}
		attach(sys)
		task := hog(eng, sys, "hog", 2.0)
		eng.Run(300 * event.Millisecond)
		if got := sys.SoC.Cores[task.CPU()].Type; got != platform.Little {
			t.Fatalf("task on %v with big cluster offline", got)
		}
	}
}

// EAS: a saturating little cluster trips the overutilized escape hatch and
// spills load to big cores; a single efficient sliver stays on little.
func TestEASOverutilizedSpills(t *testing.T) {
	eng, sys := rig()
	NewEAS(sys, power.Default())
	tasks := make([]*sched.Task, 5)
	for i := range tasks {
		tasks[i] = hog(eng, sys, "hog", 1.8)
	}
	eng.Run(500 * event.Millisecond)
	big := 0
	for _, task := range tasks {
		if sys.SoC.Cores[task.CPU()].Type == platform.Big {
			big++
		}
	}
	if big == 0 {
		t.Fatal("EAS never spilled to big cores despite little-cluster saturation")
	}
}

// EAS: with a calm system, moderate tasks stay on the energy-efficient
// little cluster even when big cores are free.
func TestEASPrefersEfficientCluster(t *testing.T) {
	eng, sys := rig()
	NewEAS(sys, power.Default())
	task := sys.NewTask("mid", 1.5)
	var gen func(now event.Time)
	gen = func(now event.Time) {
		sys.Push(task, 2e6) // ~4ms at 500MHz, every 10ms: ~40% duty
		eng.At(now+10*event.Millisecond, gen)
	}
	gen(0)
	eng.Run(time1s)
	if task.BigRanNs > task.LittleRanNs/5 {
		t.Fatalf("moderate task ran %v on big cores (little %v)", task.BigRanNs, task.LittleRanNs)
	}
}
