package main

import (
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// moduleLayers are the simulator's packages (biglittle/internal/<name>) the
// CPU-profile fold reports separately; every other package of the module
// folds into "other".
var moduleLayers = []string{
	"event", "sched", "pelt", "governor", "metrics", "power", "workload",
	"apps", "thermal", "altsched", "platform", "core", "uarch", "cache",
	"synth", "bpred", "snapshot", "lab", "explore", "fleet", "session",
	"telemetry", "profile", "xray", "check", "delta", "analysis",
}

// foldBuckets is every bucket a sample can fold into: the module layers,
// then the Go runtime and standard-library groups.
var foldBuckets = append(append([]string(nil), moduleLayers...),
	"gc", "json", "net", "crypto", "syscall", "runtime_other", "other")

// gcPrefixes name the runtime functions that allocate, collect, or run
// write barriers: their samples are what allocation costs.
var gcPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.makeslice", "runtime.growslice", "runtime.makemap",
	"runtime.rawbyteslice", "runtime.rawstring", "runtime.nextFreeFast",
	"runtime.gc", "runtime.(*gc", "runtime._GC", "runtime.scan",
	"runtime.greyobject", "runtime.markroot", "runtime.markBits",
	"runtime.findObject", "runtime.spanOf", "runtime.heapBits",
	"runtime.heapSetType", "runtime.typePointers", "runtime.(*typePointers)",
	"runtime.(*mheap)", "runtime.(*mspan)", "runtime.(*mcache)",
	"runtime.(*mcentral)", "runtime.(*sweepLocked)", "runtime.(*sweepLocker)",
	"runtime.sweepone", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.(*pageAlloc)", "runtime.(*scavenger", "runtime.(*wbBuf)",
	"runtime.wbBuf", "runtime.bulkBarrier", "runtime.deductAssistCredit",
	"runtime.memclrNoHeapPointers", "runtime.(*gcWork)", "runtime.(*gcBits)",
}

// layerOf folds one leaf function name, as pprof records it, into a bucket.
func layerOf(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, "biglittle/internal/"):
		name := strings.TrimPrefix(pkg, "biglittle/internal/")
		for _, l := range moduleLayers {
			if l == name {
				return l
			}
		}
		return "other"
	case pkg == "runtime":
		for _, p := range gcPrefixes {
			if strings.HasPrefix(fn, p) {
				return "gc"
			}
		}
		if strings.HasPrefix(fn, "runtime.netpoll") {
			return "net"
		}
		return "runtime_other"
	case strings.HasPrefix(pkg, "encoding/json"):
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/") || strings.HasPrefix(pkg, "vendor/golang.org/x/net/"):
		return "net"
	case strings.HasPrefix(pkg, "crypto/"):
		return "crypto"
	case pkg == "syscall" || pkg == "os" || strings.HasPrefix(pkg, "internal/syscall/") ||
		pkg == "internal/poll" || pkg == "internal/runtime/syscall":
		return "syscall"
	case strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime_other"
	}
	return "other"
}

// packageOf extracts the import path from a pprof function name such as
// "biglittle/internal/sched.(*System).onTick" or "encoding/json.Marshal":
// everything before the first dot after the last slash. Generic type
// arguments are dropped first, since they can themselves contain paths.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// foldProfile reads a CPU profile as runtime/pprof writes it (gzipped
// profile.proto) and attributes each sample's CPU time to the bucket of its
// leaf frame, returning each bucket's share in percent and the number of
// samples. The shares sum to 100 whenever there is at least one sample.
func foldProfile(r io.Reader) (map[string]float64, int, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, 0, fmt.Errorf("fold: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("fold: %w", err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, 0, fmt.Errorf("fold: %w", err)
	}
	byBucket := map[string]float64{}
	total := 0.0
	for _, s := range p.samples {
		if len(s.values) == 0 {
			continue
		}
		v := float64(s.values[len(s.values)-1]) // cpu nanoseconds
		bucket := "other"
		if len(s.locations) > 0 {
			if lines := p.locations[s.locations[0]]; len(lines) > 0 {
				// The first line of a location is the innermost inlined
				// function: the frame that was actually executing.
				bucket = layerOf(p.functions[lines[0]])
			}
		}
		byBucket[bucket] += v
		total += v
	}
	pct := make(map[string]float64, len(foldBuckets))
	for _, b := range foldBuckets {
		pct[b] = 0
		if total > 0 {
			pct[b] = 100 * byBucket[b] / total
		}
	}
	return pct, len(p.samples), nil
}

// profile is the part of profile.proto the fold needs: samples (leaf-first
// location ids and values), each location's function ids, and each
// function's name.
type profile struct {
	samples   []sample
	locations map[uint64][]uint64 // location id -> function ids, innermost first
	functions map[uint64]string   // function id -> name
}

type sample struct {
	locations []uint64
	values    []int64
}

// Field numbers from github.com/google/pprof/proto/profile.proto.
const (
	fieldProfileSample    = 2
	fieldProfileLocation  = 4
	fieldProfileFunction  = 5
	fieldProfileStrings   = 6
	fieldSampleLocationID = 1
	fieldSampleValue      = 2
	fieldLocationID       = 1
	fieldLocationLine     = 4
	fieldLineFunctionID   = 1
	fieldFunctionID       = 1
	fieldFunctionName     = 2
	wireVarint            = 0
	wireFixed64           = 1
	wireBytes             = 2
	wireFixed32           = 5
)

var errTruncated = errors.New("truncated protobuf")

func parseProfile(data []byte) (*profile, error) {
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	funcNames := map[uint64]uint64{} // function id -> string index
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case fieldProfileSample:
			var s sample
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case fieldSampleLocationID:
					ids, err := varints(w, v, b)
					s.locations = append(s.locations, ids...)
					return err
				case fieldSampleValue:
					vals, err := varints(w, v, b)
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
					return err
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fieldProfileLocation:
			var id uint64
			var fns []uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case fieldLocationID:
					id = v
				case fieldLocationLine:
					return walkFields(b, func(f, w int, v uint64, b []byte) error {
						if f == fieldLineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fieldProfileFunction:
			var id, name uint64
			err := walkFields(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case fieldFunctionID:
					id = v
				case fieldFunctionName:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case fieldProfileStrings:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, idx := range funcNames {
		if idx < uint64(len(strs)) {
			p.functions[id] = strs[idx]
		}
	}
	return p, nil
}

// walkFields calls fn for each field of one protobuf message: varint values
// arrive in v, length-delimited payloads in b. Fixed-width fields are
// skipped (profile.proto's fields of interest are all varints or messages).
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case wireBytes:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case wireFixed64:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
			continue
		case wireFixed32:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field, packed (one length-delimited
// run) or not (one value per occurrence).
func varints(wire int, v uint64, b []byte) ([]uint64, error) {
	if wire == wireVarint {
		return []uint64{v}, nil
	}
	var out []uint64
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errTruncated
		}
		out = append(out, x)
		b = b[n:]
	}
	return out, nil
}
