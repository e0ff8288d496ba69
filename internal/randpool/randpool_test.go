package randpool

import "testing"

// TestReusedSourceDrawsAsFresh pins what every user of the pool relies on:
// a source handed back after draws and taken again under a new seed draws
// exactly what a fresh source of that seed draws.
func TestReusedSourceDrawsAsFresh(t *testing.T) {
	used := Get(1)
	for i := 0; i < 1000; i++ {
		used.Int63()
	}
	used.Float64()
	Put(used)
	reused, fresh := Get(42), Get(42)
	if reused != used {
		t.Fatal("Get made a source while one was idle")
	}
	for i := 0; i < 10000; i++ {
		if a, b := reused.Int63(), fresh.Int63(); a != b {
			t.Fatalf("draw %d: reused source gave %d, fresh %d", i, a, b)
		}
	}
}
