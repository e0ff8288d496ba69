package lab

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"

	"biglittle/internal/core"
	"biglittle/internal/synth"
	"biglittle/internal/uarch"
)

// memoKey mirrors the analysis drivers' uarch key: every input of one run.
type memoKey struct {
	Model        uarch.Model
	Profile      synth.Profile
	MHz          int
	Instructions int
}

func testMemoKey() memoKey {
	return memoKey{Model: uarch.CortexA7(), Profile: synth.SPEC()[0], MHz: 1300, Instructions: 20_000}
}

// memoUarch memoizes the run k describes, counting how often it computes.
func memoUarch(r *Runner, k memoKey, calls *int) uarch.Result {
	return Memo(r, "uarch", k, func() uarch.Result {
		*calls++
		return uarch.Run(k.Model, k.Profile, k.MHz, k.Instructions)
	})
}

func jsonFiles(t *testing.T, dir string) int {
	t.Helper()
	n, err := countEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMemo(t *testing.T) {
	k := testMemoKey()
	want := uarch.Run(k.Model, k.Profile, k.MHz, k.Instructions)
	calls := 0

	// No cache: compute, count nothing, write nothing.
	if got := memoUarch(&Runner{}, k, &calls); got != want || calls != 1 {
		t.Fatalf("uncached Memo = %+v after %d calls, want %+v after 1", got, calls, want)
	}
	if got := memoUarch(nil, k, &calls); got != want || calls != 2 {
		t.Fatalf("nil-runner Memo = %+v after %d calls, want %+v after 2", got, calls, want)
	}

	dir := t.TempDir()
	cache, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := jsonFiles(t, dir); n != 0 {
		t.Fatalf("%d blobs before any cached Memo", n)
	}

	// A miss computes and stores; the hit reads it back without computing.
	r := &Runner{Cache: cache}
	calls = 0
	for i := 0; i < 2; i++ {
		if got := memoUarch(r, k, &calls); got != want {
			t.Fatalf("Memo pass %d = %+v, want %+v", i, got, want)
		}
	}
	if s := r.Stats(); calls != 1 || s.MemoMisses != 1 || s.MemoHits != 1 || s.Jobs != 0 {
		t.Fatalf("miss then hit: %d calls, stats %+v; want 1 call, 1 miss, 1 hit, 0 jobs", calls, s)
	}

	// A truncated blob is removed and recomputed to the same value.
	fp, err := memoFingerprint("uarch", k)
	if err != nil {
		t.Fatal(err)
	}
	p := cache.path(fp)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	calls = 0
	if got := memoUarch(r, k, &calls); got != want || calls != 1 {
		t.Fatalf("after truncation Memo = %+v after %d calls, want %+v recomputed once", got, calls, want)
	}
	if again, err := os.ReadFile(p); err != nil || !bytes.Equal(blobValue(t, again), blobValue(t, data)) {
		t.Fatalf("recomputed blob differs from the original (err %v)", err)
	}

	// One key field changes the identity: a new entry beside the old one.
	grown := k
	grown.Model.L2.SizeB *= 2
	gfp, err := memoFingerprint("uarch", grown)
	if err != nil {
		t.Fatal(err)
	}
	if gfp == fp {
		t.Fatal("a different L2 size fingerprints identically")
	}
	calls = 0
	memoUarch(r, grown, &calls)
	if calls != 1 {
		t.Fatalf("new key computed %d times, want 1", calls)
	}
	if n := jsonFiles(t, dir); n != 2 {
		t.Fatalf("%d blobs after two keys, want 2", n)
	}

	// Memo blobs list like results, with the kind as the app, and
	// Invalidate drops them by kind. A core result beside them stays.
	if err := cache.Put(strings.Repeat("ab", 32), "bbench", "", core.Result{}); err != nil {
		t.Fatal(err)
	}
	entries, err := cache.List()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, e := range entries {
		kinds[e.App]++
		if e.App == "uarch" && e.Fingerprint != fp && e.Fingerprint != gfp {
			t.Errorf("listed uarch entry %s is neither stored fingerprint", e.Fingerprint)
		}
	}
	if kinds["uarch"] != 2 || kinds["bbench"] != 1 {
		t.Fatalf("List apps = %v, want 2 uarch and 1 bbench", kinds)
	}
	if n, err := cache.Invalidate("uarch"); err != nil || n != 2 {
		t.Fatalf("Invalidate(uarch) = %d, %v; want 2", n, err)
	}
	if n := jsonFiles(t, dir); n != 1 {
		t.Fatalf("%d blobs after invalidating uarch, want only the core result", n)
	}

	// Under Check a tampered value fails loudly, naming kind and fingerprint.
	calls = 0
	memoUarch(r, k, &calls)
	data, err = os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	var b memoBlob[uarch.Result]
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	b.Value.IPC *= 1.5
	tampered, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if got := memoUarch(r, k, &calls); got.IPC != b.Value.IPC {
		t.Fatalf("unaudited hit IPC = %v, want the stored %v", got.IPC, b.Value.IPC)
	}
	audited := &Runner{Cache: cache, Check: true}
	defer func() {
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, "uarch") || !strings.Contains(msg, fp) {
			t.Fatalf("audited tampered hit: recovered %q, want a panic naming uarch and %s", msg, fp)
		}
	}()
	memoUarch(audited, k, &calls)
}

// blobValue returns the stored value bytes of a memo blob.
func blobValue(t *testing.T, data []byte) []byte {
	t.Helper()
	var b memoBlob[json.RawMessage]
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b.Value
}

// FuzzCacheBlob writes arbitrary bytes where a result blob and a memo blob
// live. Cache.Get and Memo must never panic, must hit only when the stored
// fingerprint matches, and must otherwise delete the file (Memo then stores
// the value it computed in its place). make fuzz-smoke runs this briefly on
// every CI pass.
func FuzzCacheBlob(f *testing.F) {
	resFp := strings.Repeat("cd", 32)
	type value struct {
		N int
		S string
	}
	memoFp, err := memoFingerprint("fuzz", 1)
	if err != nil {
		f.Fatal(err)
	}
	good, _ := json.Marshal(blob{Fingerprint: resFp, App: "bbench", Result: core.Result{App: "bbench"}})
	goodMemo, _ := json.Marshal(memoBlob[value]{Fingerprint: memoFp, App: "fuzz", Value: value{N: 7, S: "x"}})
	f.Add(good)
	f.Add(goodMemo)
	f.Add(good[:len(good)/2])
	f.Add(goodMemo[:len(goodMemo)-1])
	f.Add([]byte{})
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"fingerprint":"` + memoFp + `","value":null}`))
	f.Add([]byte(`{"fingerprint":"` + memoFp + `","value":"seven"}`))
	f.Add([]byte(`{"fingerprint":"` + resFp + `","result":[]}`))

	// Every input overwrites both paths before reading them, so one cache
	// serves all inputs.
	cache, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var head struct{ Fingerprint string }
		headOK := json.Unmarshal(data, &head) == nil

		// Result path.
		p := cache.path(resFp)
		if err := writeAtomic(p, data); err != nil {
			t.Fatal(err)
		}
		_, hit := cache.Get(resFp)
		if hit && (!headOK || head.Fingerprint != resFp) {
			t.Fatalf("Get hit on a blob whose fingerprint is not %s", resFp)
		}
		if _, err := os.Stat(p); hit == os.IsNotExist(err) {
			t.Fatalf("Get hit=%v but blob present=%v", hit, err == nil)
		}

		// Memo path.
		r := &Runner{Cache: cache}
		p = cache.path(memoFp)
		if err := writeAtomic(p, data); err != nil {
			t.Fatal(err)
		}
		computed := false
		v := Memo(r, "fuzz", 1, func() value { computed = true; return value{N: 42} })
		if !computed && (!headOK || head.Fingerprint != memoFp) {
			t.Fatalf("Memo hit on a blob whose fingerprint is not %s", memoFp)
		}
		if computed {
			if v != (value{N: 42}) {
				t.Fatalf("Memo miss returned %+v, want the computed value", v)
			}
			again, err := os.ReadFile(p)
			if err != nil {
				t.Fatalf("recomputed value not stored: %v", err)
			}
			if !bytes.Equal(blobValue(t, again), []byte(`{"N":42,"S":""}`)) {
				t.Fatalf("bad blob not replaced by the computed value: %s", again)
			}
		}
	})
}
