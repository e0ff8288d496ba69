package lab

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"time"

	"biglittle/internal/core"
	"biglittle/internal/snapshot"
)

// schemaVersion invalidates every cached result when the blob layout
// changes, or when the fingerprint definition changes so that a key could
// come to name a different simulation. A change that only merges keys of
// identical simulations (as the Effective knob view did) needs no bump: every
// new key is the old key of a config that simulates the same.
const schemaVersion = "1"

// CodeVersion identifies the simulator build whose results populate the
// cache: the VCS revision stamped into the binary (suffixed "+dirty" for
// modified working trees), or "dev" when no stamp is available (e.g. test
// binaries). Results from different code versions live in different cache
// subdirectories, so a change committed between two stamped builds
// invalidates warm results. Unstamped ("dev") and modified ("+dirty") builds
// are not told apart: two different such builds share one namespace, and
// the second is served the first's results. Give each unstamped or modified
// build a fresh -cache-dir.
func CodeVersion() string {
	rev, dirty := "", false
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if rev == "" {
		return "dev"
	}
	if len(rev) > 12 {
		rev = rev[:12]
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// DefaultCacheDir is where results land when no -cache-dir is given:
// $XDG_CACHE_HOME/biglittle (or the OS equivalent of ~/.cache/biglittle).
func DefaultCacheDir() (string, error) {
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("lab: no user cache dir: %w", err)
	}
	return filepath.Join(base, "biglittle"), nil
}

// Cache is a content-addressed store of simulation results and derived
// results (Memo): one JSON blob per (fingerprint, code version), laid out as
//
//	<dir>/v<schema>-<code version>/<fp[:2]>/<fp>.json
//
// Reads verify the stored fingerprint and silently treat any corrupt,
// truncated, or mismatched blob as a miss (deleting it), so a damaged cache
// degrades to re-simulation, never to a wrong result. Writes go through a
// temp file plus atomic rename, so concurrent writers of the same
// fingerprint are safe (they produce identical content).
type Cache struct {
	dir     string // root directory
	version string // v<schema>-<code version>
}

// Open returns a cache rooted at dir (""= DefaultCacheDir), creating the
// current version directory.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		d, err := DefaultCacheDir()
		if err != nil {
			return nil, err
		}
		dir = d
	}
	c := &Cache{dir: dir, version: "v" + schemaVersion + "-" + CodeVersion()}
	if err := os.MkdirAll(filepath.Join(dir, c.version), 0o755); err != nil {
		return nil, fmt.Errorf("lab: create cache dir: %w", err)
	}
	return c, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// Version returns the current version-directory name.
func (c *Cache) Version() string { return c.version }

// blob is the on-disk envelope around one cached result.
type blob struct {
	Fingerprint string      `json:"fingerprint"`
	App         string      `json:"app"`
	Salt        string      `json:"salt,omitempty"`
	SavedAt     time.Time   `json:"saved_at"`
	Result      core.Result `json:"result"`
}

func (c *Cache) path(fp string) string {
	return filepath.Join(c.dir, c.version, fp[:2], fp+".json")
}

// Get loads the result stored for fp, reporting whether a valid entry was
// found. The blob is read into a pooled codec, so only the decoded Result
// allocates. Invalid entries are removed so the follow-up Put replaces them.
func (c *Cache) Get(fp string) (core.Result, bool) {
	if c == nil {
		return core.Result{}, false
	}
	p := c.path(fp)
	cd := getCodec()
	defer cd.put()
	data, err := cd.read(p)
	if err != nil {
		return core.Result{}, false
	}
	if err := json.Unmarshal(data, &cd.blob); err != nil || cd.blob.Fingerprint != fp {
		os.Remove(p)
		return core.Result{}, false
	}
	return cd.blob.Result, true
}

// Put stores res under fp, as json.Marshal's bytes for its blob encoded in
// a pooled codec. A result that cannot be marshaled (NaN metrics,
// say) is not an error worth failing the experiment over; the caller treats
// a Put failure as "this run stays uncached".
func (c *Cache) Put(fp, app, salt string, res core.Result) error {
	if c == nil {
		return nil
	}
	cd := getCodec()
	defer cd.put()
	cd.blob = blob{
		Fingerprint: fp,
		App:         app,
		Salt:        salt,
		SavedAt:     time.Now().UTC(),
		Result:      res,
	}
	data, err := cd.encode(&cd.blob)
	if err != nil {
		return fmt.Errorf("lab: marshal result: %w", err)
	}
	return writeAtomic(c.path(fp), data)
}

// writeAtomic writes data to p by temp file and rename, so readers see the
// old blob or the new one, never a torn write.
func writeAtomic(p string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "put-*")
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), p)
}

// prefixPath is the prefix-tier layout: encoded snapshot blobs under
// <dir>/<version>/prefix/<key[:2]>/<key>.blsnap. The tier shares the
// version directory with results — a schema or code change invalidates
// warmed prefixes exactly like memoized results — but uses its own
// extension so List and countEntries see only results.
func (c *Cache) prefixPath(key string) string {
	return filepath.Join(c.dir, c.version, "prefix", key[:2], key+".blsnap")
}

// GetPrefix loads the encoded prefix snapshot stored under key, reporting
// whether a valid blob was found. The blob is validated by a full decode and
// removed if corrupt or stale, as in loadPrefix.
func (c *Cache) GetPrefix(key string) ([]byte, bool) {
	data, _, ok := c.loadPrefix(key)
	return data, ok
}

// loadPrefix reads the prefix blob stored under key and decodes it once,
// returning both the encoded and the decoded form. The decode is the
// validation — the codec checksums and version-checks the blob — and corrupt
// or stale entries are removed so the follow-up PutPrefix replaces them.
func (c *Cache) loadPrefix(key string) ([]byte, *snapshot.State, bool) {
	if c == nil {
		return nil, nil, false
	}
	p := c.prefixPath(key)
	data, err := os.ReadFile(p)
	if err != nil {
		return nil, nil, false
	}
	st, err := snapshot.Decode(data)
	if err != nil {
		os.Remove(p)
		return nil, nil, false
	}
	return data, st, true
}

// removePrefix deletes the prefix blob stored under key, if any.
func (c *Cache) removePrefix(key string) { os.Remove(c.prefixPath(key)) }

// PutPrefix stores an encoded prefix snapshot under key, written atomically
// like Put.
func (c *Cache) PutPrefix(key string, blob []byte) error {
	if c == nil {
		return nil
	}
	return writeAtomic(c.prefixPath(key), blob)
}

// PrefixStats reports the disk prefix tier's footprint under the current
// version directory — how many warmed prefix snapshots are persisted and
// their total bytes (what `bllab stat` prints). Results and prefixes share
// the version directory, so PruneStale drops stale prefixes along with
// stale results.
func (c *Cache) PrefixStats() (entries int, bytes int64, err error) {
	root := filepath.Join(c.dir, c.version, "prefix")
	werr := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if !info.IsDir() && filepath.Ext(p) == ".blsnap" {
			entries++
			bytes += info.Size()
		}
		return nil
	})
	return entries, bytes, werr
}

// Entry describes one cached result for inspection (bllab ls).
type Entry struct {
	Version     string
	Fingerprint string
	App         string
	Salt        string
	SizeB       int64
	SavedAt     time.Time
}

// List returns every entry across all version directories, current or
// stale, sorted by version then app then fingerprint.
func (c *Cache) List() ([]Entry, error) {
	versions, err := c.versionDirs()
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, ver := range versions {
		root := filepath.Join(c.dir, ver)
		err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
			if err != nil || info.IsDir() || filepath.Ext(p) != ".json" {
				return err
			}
			e := Entry{Version: ver, SizeB: info.Size(), SavedAt: info.ModTime()}
			if data, rerr := os.ReadFile(p); rerr == nil {
				var b blob
				if json.Unmarshal(data, &b) == nil {
					e.Fingerprint, e.App, e.Salt = b.Fingerprint, b.App, b.Salt
					if !b.SavedAt.IsZero() {
						e.SavedAt = b.SavedAt
					}
				}
			}
			if e.Fingerprint == "" {
				e.Fingerprint = filepath.Base(p[:len(p)-len(".json")])
			}
			out = append(out, e)
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Version != out[j].Version {
			return out[i].Version < out[j].Version
		}
		if out[i].App != out[j].App {
			return out[i].App < out[j].App
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out, nil
}

// PruneStale removes every version directory except the current one and
// returns how many entries were deleted — the cleanup after a code change.
func (c *Cache) PruneStale() (int, error) {
	versions, err := c.versionDirs()
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, ver := range versions {
		if ver == c.version {
			continue
		}
		n, err := countEntries(filepath.Join(c.dir, ver))
		if err != nil {
			return removed, err
		}
		if err := os.RemoveAll(filepath.Join(c.dir, ver)); err != nil {
			return removed, err
		}
		removed += n
	}
	return removed, nil
}

// Invalidate removes current-version entries — all of them, or only those
// belonging to the named app (a derived result's kind counts as its app) —
// and returns how many were deleted.
func (c *Cache) Invalidate(app string) (int, error) {
	if app == "" {
		root := filepath.Join(c.dir, c.version)
		n, err := countEntries(root)
		if err != nil {
			return 0, err
		}
		if err := os.RemoveAll(root); err != nil {
			return 0, err
		}
		return n, os.MkdirAll(root, 0o755)
	}
	entries, err := c.List()
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, e := range entries {
		if e.Version != c.version || e.App != app {
			continue
		}
		if err := os.Remove(c.path(e.Fingerprint)); err == nil {
			removed++
		}
	}
	return removed, nil
}

func (c *Cache) versionDirs() ([]string, error) {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, de := range des {
		if de.IsDir() && len(de.Name()) > 1 && de.Name()[0] == 'v' {
			out = append(out, de.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

func countEntries(root string) (int, error) {
	n := 0
	err := filepath.Walk(root, func(p string, info os.FileInfo, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil
			}
			return err
		}
		if !info.IsDir() && filepath.Ext(p) == ".json" {
			n++
		}
		return nil
	})
	return n, err
}
