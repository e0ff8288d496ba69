package lab

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"biglittle/internal/core"
)

// bytesPerRun reports the heap bytes fn allocates per call: the least
// average over three batches of n calls, each after a warm-up call. Like
// testing.AllocsPerRun it runs at GOMAXPROCS 1, because a sync.Pool keeps
// an item in the slot of the P that put it, and a goroutine moved to
// another P finds that P's pool empty. The least batch drops one that some
// other goroutine of the test binary allocated in.
func bytesPerRun(n int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	best := math.Inf(1)
	for batch := 0; batch < 3; batch++ {
		fn()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		best = min(best, float64(after.TotalAlloc-before.TotalAlloc)/float64(n))
	}
	return best
}

// TestCodecEncodesMarshalBytes pins the blob layout: what the pooled codec
// encodes — every fingerprint's preimage, every result and memo blob — is
// json.Marshal's bytes, HTML escaping, sorted map keys and all, and a value
// Marshal refuses fails to encode too.
func TestCodecEncodesMarshalBytes(t *testing.T) {
	res := core.Run(testConfig(t))
	res.App = "<a&b>"
	cfg := testConfig(t)
	cfg.PinnedMHz = map[int]int{1: 1400, 0: 900}
	c := getCodec()
	defer c.put()
	for name, v := range map[string]any{
		"blob":  &blob{Fingerprint: "f", App: "<x>", SavedAt: time.Unix(5, 0).UTC(), Result: res},
		"print": &print{App: cfg.App.Name, Knobs: cfg.Knobs},
		"memo":  &memoPrint[[]float64]{Schema: schemaVersion, Kind: "k", Key: []float64{1.5, 1e21}},
	} {
		got, err := c.encode(v)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: codec wrote\n%s\njson.Marshal writes\n%s", name, got, want)
		}
	}
	if _, err := c.encode(math.NaN()); err == nil {
		t.Fatal("encoding NaN succeeded; json.Marshal refuses it")
	}
}

// TestFingerprintAllocatesOnlyItsString: with the print, the encoder's
// buffer and the hex digits in a pooled codec, fingerprinting a
// from-scratch job allocates one object, its 64-byte string.
func TestFingerprintAllocatesOnlyItsString(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled codecs at random")
	}
	job := Job{Config: testConfig(t)}
	fp := func() {
		if _, ok := Fingerprint(job); !ok {
			t.Fatal("not fingerprintable")
		}
	}
	if allocs := testing.AllocsPerRun(100, fp); allocs != 1 {
		t.Errorf("Fingerprint allocates %.2f objects, want 1", allocs)
	}
	if b := bytesPerRun(100, fp); b != 64 {
		t.Errorf("Fingerprint allocates %.1f bytes, want 64", b)
	}
}

// TestCacheGetAllocatesNoFileBuffer: Get reads a blob into a pooled codec,
// so beyond decoding the blob's JSON it allocates less than the blob's size
// on disk (opening the file allocates a few hundred bytes; os.ReadFile
// would allocate the whole blob again).
func TestCacheGetAllocatesNoFileBuffer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled codecs at random")
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(t)
	fp, _ := Fingerprint(Job{Config: cfg})
	if err := c.Put(fp, cfg.App.Name, "", core.Run(cfg)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(c.path(fp))
	if err != nil {
		t.Fatal(err)
	}
	get := bytesPerRun(50, func() {
		if _, ok := c.Get(fp); !ok {
			t.Fatal("cache miss")
		}
	})
	decode := bytesPerRun(50, func() {
		var b blob
		if err := json.Unmarshal(data, &b); err != nil {
			t.Fatal(err)
		}
	})
	if get-decode >= float64(len(data)) {
		t.Fatalf("Get allocates %.0f B, decoding alone %.0f B: %.0f B more, not under the %d-byte blob",
			get, decode, get-decode, len(data))
	}
}
