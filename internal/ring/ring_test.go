package ring

import (
	"runtime"
	"testing"
)

// contents returns the ring's entries, oldest first.
func contents(r *Ring[int]) []int {
	out := make([]int, r.Len())
	for i := range out {
		out[i] = *r.At(i)
	}
	return out
}

func record(r *Ring[int], max int, from, to int) {
	for v := from; v < to; v++ {
		*r.Next(max, 7) = v
	}
}

func TestRingKeepsNewestInOrder(t *testing.T) {
	for _, tc := range []struct {
		name     string
		max, n   int
		wantLen  int
		wantDrop int
	}{
		{"below bound", 5, 3, 3, 0},
		{"at bound", 5, 5, 5, 0},
		{"wrapped", 5, 13, 5, 8},
		{"default bound", 0, 20, 7, 13},
		{"unbounded across blocks", -1, 3*blockLen + 5, 3*blockLen + 5, 0},
		{"wrapped across blocks", blockLen + 3, 4 * blockLen, blockLen + 3, 3*blockLen - 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var r Ring[int]
			record(&r, tc.max, 0, tc.n)
			if r.Len() != tc.wantLen || r.Dropped() != tc.wantDrop {
				t.Fatalf("Len %d Dropped %d, want %d %d", r.Len(), r.Dropped(), tc.wantLen, tc.wantDrop)
			}
			for i, v := range contents(&r) {
				if want := tc.n - tc.wantLen + i; v != want {
					t.Fatalf("entry %d = %d, want %d", i, v, want)
				}
			}
		})
	}
}

// A slot handed out at the bound still holds the entry it replaces, so an
// owner can reuse that entry's storage.
func TestRingWrapReturnsOldestSlot(t *testing.T) {
	var r Ring[int]
	record(&r, 3, 10, 13)
	for want := 10; want < 16; want++ {
		slot := r.Next(3, 0)
		if *slot != want {
			t.Fatalf("wrapped slot holds %d, want %d", *slot, want)
		}
		*slot = want + 3
	}
}

// Raising the bound before the ring wraps grows a block that was cut short
// at the old bound. Raising it after the ring wraps keeps the entries in
// order: the ring grows again once its oldest entry is back at the start.
func TestRingBoundChanges(t *testing.T) {
	var r Ring[int]
	record(&r, 10, 0, 6)
	record(&r, 2*blockLen, 6, blockLen+50)
	if r.Len() != blockLen+50 || r.Dropped() != 0 {
		t.Fatalf("Len %d Dropped %d after raising the bound", r.Len(), r.Dropped())
	}
	for i, v := range contents(&r) {
		if v != i {
			t.Fatalf("entry %d = %d after raising the bound", i, v)
		}
	}

	var w Ring[int]
	record(&w, 4, 0, 6)
	record(&w, 8, 6, 9)
	got := contents(&w)
	for i, v := range got {
		if want := 9 - len(got) + i; v != want {
			t.Fatalf("after raising the bound of a wrapped ring: %v, want the newest in order", got)
		}
	}
}

// Filling a ring allocates what it keeps: blocks of the entries held, and
// the small slice of block pointers.
func TestRingFillAllocatesWhatItKeeps(t *testing.T) {
	const max = 100_000
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	var r Ring[[13]int64]
	for i := 0; i < 3*max; i++ {
		r.Next(max, 0)[0] = int64(i)
	}
	runtime.ReadMemStats(&ms)
	kept := float64(max * 13 * 8)
	if got := float64(ms.TotalAlloc - before); got > 1.01*kept {
		t.Fatalf("filling allocated %.0f bytes to keep %.0f (%.2fx)", got, kept, got/kept)
	}
	if r.At(0)[0] != 2*max {
		t.Fatalf("oldest entry %d, want %d", r.At(0)[0], 2*max)
	}
}
