package lab

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// memoPrint is the hashed view of a derived result's identity: the schema,
// the kind of result, and every input the computation reads.
type memoPrint[K any] struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"`
	Key    K      `json:"key"`
}

// memoBlob is the on-disk envelope around one derived result. It shares the
// result blob's fingerprint, app and saved_at fields, with the kind in app,
// so List, Invalidate and PruneStale treat it like any cached result.
type memoBlob[V any] struct {
	Fingerprint string    `json:"fingerprint"`
	App         string    `json:"app"`
	SavedAt     time.Time `json:"saved_at"`
	Value       V         `json:"value"`
}

// memoFingerprint hashes a derived result's identity.
func memoFingerprint[K any](kind string, key K) (string, error) {
	data, err := json.Marshal(memoPrint[K]{Schema: schemaVersion, Kind: kind, Key: key})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// Memo returns fn(), memoized in the runner's cache as a derived result: a
// value a driver computes outside core.Run, such as a microarchitecture or
// branch-predictor measurement. key must hold every input fn reads; its
// JSON, with kind and the schema, is the fingerprint, and the blob lives
// beside the results under the same code version, so a code change
// invalidates it exactly as it does results.
//
// Without a cache Memo just calls fn. A corrupt or mismatched blob is
// removed and recomputed, and a value that does not marshal stays uncached.
// Under Check a hit is recomputed and must match the stored bytes; a
// mismatch panics, naming the kind and fingerprint, as drivers do on a
// failed job.
func Memo[K, V any](r *Runner, kind string, key K, fn func() V) V {
	if r == nil || r.Cache == nil {
		return fn()
	}
	fp, err := memoFingerprint(kind, key)
	if err != nil {
		r.count(func(s *Stats) { s.MemoMisses++ }, "lab_memo_misses")
		return fn()
	}
	p := r.Cache.path(fp)
	if v, stored, ok := loadMemo[V](p, fp); ok {
		if r.Check {
			fresh, err := json.Marshal(fn())
			if err != nil || !bytes.Equal(fresh, stored) {
				panic(fmt.Sprintf("lab: memoized %s result %s disagrees with a fresh computation", kind, fp))
			}
		}
		r.count(func(s *Stats) { s.MemoHits++ }, "lab_memo_hits")
		return v
	}
	r.count(func(s *Stats) { s.MemoMisses++ }, "lab_memo_misses")
	v := fn()
	if data, err := json.Marshal(memoBlob[V]{Fingerprint: fp, App: kind, SavedAt: time.Now().UTC(), Value: v}); err == nil {
		_ = writeAtomic(p, data) // a failed write leaves the value uncached
	}
	return v
}

// loadMemo reads the derived result stored at p for fp, returning the value
// and its stored JSON. A blob that does not decode, or whose fingerprint
// does not match, is removed.
func loadMemo[V any](p, fp string) (v V, stored json.RawMessage, ok bool) {
	data, err := os.ReadFile(p)
	if err != nil {
		return v, nil, false
	}
	var b memoBlob[json.RawMessage]
	if json.Unmarshal(data, &b) != nil || b.Fingerprint != fp || json.Unmarshal(b.Value, &v) != nil {
		os.Remove(p)
		return v, nil, false
	}
	return v, b.Value, true
}
