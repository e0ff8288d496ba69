package synth

import (
	"math"
	"testing"
)

// TestDeterminism pins that a stream's trace is a function of its profile
// alone: a fresh stream and one reset after drawing another profile's
// trace draw the same instructions.
func TestDeterminism(t *testing.T) {
	var reused Stream
	for _, p := range SPEC() {
		var fresh Stream
		fresh.Reset(p)
		reused.Reset(p)
		for i := 0; i < 5000; i++ {
			a, b := fresh.Next(), reused.Next()
			if a != b {
				t.Fatalf("%s: trace diverged at %d: %+v vs %+v", p.Name, i, a, b)
			}
		}
	}
}

func TestMixMatchesProfile(t *testing.T) {
	for _, p := range SPEC() {
		var s Stream
		s.Reset(p)
		n := 200_000
		counts := map[Kind]int{}
		mispred, taken, branches := 0, 0, 0
		for i := 0; i < n; i++ {
			in := s.Next()
			counts[in.Kind]++
			if in.Kind == Branch {
				branches++
				if in.Mispredicted {
					mispred++
				}
				if in.Taken {
					taken++
				}
			}
		}
		check := func(name string, got int, want float64) {
			g := float64(got) / float64(n)
			if math.Abs(g-want) > 0.01 {
				t.Errorf("%s: %s fraction %.4f, want %.4f", p.Name, name, g, want)
			}
		}
		check("load", counts[Load], p.LoadFrac)
		check("store", counts[Store], p.StoreFrac)
		check("branch", counts[Branch], p.BranchFrac)
		if branches > 0 {
			mr := float64(mispred) / float64(branches)
			if math.Abs(mr-p.MispredictRate) > 0.01 {
				t.Errorf("%s: mispredict rate %.4f, want %.4f", p.Name, mr, p.MispredictRate)
			}
			tr := float64(taken) / float64(branches)
			if math.Abs(tr-p.TakenRate) > 0.05 {
				t.Errorf("%s: taken rate %.4f, want %.4f", p.Name, tr, p.TakenRate)
			}
		}
	}
}

func TestAddressesWithinFootprint(t *testing.T) {
	for _, p := range SPEC() {
		var s Stream
		s.Reset(p)
		for i := 0; i < 50_000; i++ {
			in := s.Next()
			if in.Kind == Load || in.Kind == Store {
				off := in.Addr - dataBase
				if off > p.HotSetB+p.WorkingSetB {
					t.Fatalf("%s: data address %#x beyond footprint", p.Name, in.Addr)
				}
			}
			if p.CodeFootprintB > 0 && s.PC() >= p.CodeFootprintB {
				t.Fatalf("%s: pc %#x beyond code footprint %#x", p.Name, s.PC(), p.CodeFootprintB)
			}
		}
	}
}

func TestSPECRegistry(t *testing.T) {
	ps := SPEC()
	if len(ps) != 12 {
		t.Fatalf("SPEC() returned %d profiles, want 12", len(ps))
	}
	seen := map[string]bool{}
	for _, p := range ps {
		if seen[p.Name] {
			t.Fatalf("duplicate profile %q", p.Name)
		}
		seen[p.Name] = true
		if p.LoadFrac+p.StoreFrac+p.BranchFrac >= 1 {
			t.Errorf("%s: mix fractions exceed 1", p.Name)
		}
		if p.Instructions <= 0 || p.WorkingSetB == 0 || p.ILP <= 0 || p.MLP <= 0 {
			t.Errorf("%s: degenerate profile %+v", p.Name, p)
		}
	}
	if _, ok := ProfileByName("mcf"); !ok {
		t.Fatal("ProfileByName(mcf) not found")
	}
	if _, ok := ProfileByName("nonesuch"); ok {
		t.Fatal("ProfileByName(nonesuch) found")
	}
}
