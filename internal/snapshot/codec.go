package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"

	"biglittle/internal/workload"
)

// Wire format, all integers big-endian:
//
//	offset  size  field
//	0       6     magic "BLSNAP"
//	6       2     format version (== Version)
//	8       8     payload length
//	16      32    SHA-256 of payload
//	48      n     payload: JSON-encoded State
//
// The checksum guards cached blobs against torn writes and bit rot; the
// version gate refuses skewed formats; DisallowUnknownFields, and the walk
// over the State and workload objects, refuse payloads written by a newer
// State shape under the same version. Decode returns errors for every
// malformed input — it never panics.
//
// The workload log is most of a payload, so neither direction holds it
// twice: Encode marshals the State without its log and writes the records
// by hand into a blob allocated once at its final length, and Decode walks
// the State and workload objects key by key, decoding the log one record at
// a time, so the decoder holds one field or one record, never the payload.

var magic = [6]byte{'B', 'L', 'S', 'N', 'A', 'P'}

const headerLen = 6 + 2 + 8 + sha256.Size

// maxPayload bounds a blob's declared payload length. Real snapshots are a
// few hundred KB; the bound keeps a corrupt length field from driving a
// huge allocation.
const maxPayload = 1 << 30

// logKey opens the workload log in a marshalled State: neither the workload
// field nor its log is omitempty, the log is WorkloadSnap's first field,
// and no string can hold the key's unescaped quotes.
var logKey = []byte(`"workload":{"log":`)

// Encode serializes st into a self-describing, checksummed blob whose
// capacity is its length. The payload is json.Marshal's encoding of st byte
// for byte: the State without its log is marshalled (a few KB), and the log
// is written where that left null, after its length is counted.
func Encode(st *State) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("snapshot: encode nil state")
	}
	rest := *st
	rest.Workload.Log = nil
	body, err := json.Marshal(&rest)
	if err != nil {
		return nil, fmt.Errorf("snapshot: encode: %w", err)
	}
	at := bytes.Index(body, logKey) + len(logKey)
	log := st.Workload.Log
	n := len(body)
	if log != nil {
		n += logLen(log) - len("null")
	}
	blob := make([]byte, headerLen, headerLen+n)
	blob = append(blob, body[:at]...)
	if log == nil {
		blob = append(blob, "null"...)
	} else {
		blob = appendLog(blob, log)
	}
	blob = append(blob, body[at+len("null"):]...)
	payload := blob[headerLen:]
	copy(blob[0:6], magic[:])
	binary.BigEndian.PutUint16(blob[6:8], Version)
	binary.BigEndian.PutUint64(blob[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(blob[16:headerLen], sum[:])
	return blob, nil
}

// appendLog appends log as json.Marshal writes it: each record is
// {"k":…}, with w, t and at left out when zero, as Record's tags say.
func appendLog(b []byte, log []workload.Record) []byte {
	b = append(b, '[')
	for i, r := range log {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"k":`...)
		b = strconv.AppendUint(b, uint64(r.Kind), 10)
		if r.Wid != 0 {
			b = strconv.AppendInt(append(b, `,"w":`...), int64(r.Wid), 10)
		}
		if r.Th != 0 {
			b = strconv.AppendInt(append(b, `,"t":`...), int64(r.Th), 10)
		}
		if r.At != 0 {
			b = strconv.AppendInt(append(b, `,"at":`...), int64(r.At), 10)
		}
		b = append(b, '}')
	}
	return append(b, ']')
}

// logLen returns len(appendLog(nil, log)).
func logLen(log []workload.Record) int {
	n := len("[]") + len(log)*len(`{"k":}`)
	if len(log) > 1 {
		n += len(log) - 1
	}
	for _, r := range log {
		n += intLen(int64(r.Kind))
		if r.Wid != 0 {
			n += len(`,"w":`) + intLen(int64(r.Wid))
		}
		if r.Th != 0 {
			n += len(`,"t":`) + intLen(int64(r.Th))
		}
		if r.At != 0 {
			n += len(`,"at":`) + intLen(int64(r.At))
		}
	}
	return n
}

// intLen returns the length of v in decimal, its sign included.
func intLen(v int64) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// recordOpen opens every workload.Record in a payload: Kind is its first
// field and has no omitempty, and no other type in a State uses the key.
var recordOpen = []byte(`{"k":`)

// Decode parses a blob produced by Encode, verifying magic, version,
// length, and checksum before unmarshalling. Any corruption, truncation,
// or version skew yields an error. The State and workload objects are
// walked key by key, each other field decoding whole, and the log one
// record at a time into a slice sized once from the payload's record count.
func Decode(blob []byte) (*State, error) {
	if len(blob) < headerLen {
		return nil, fmt.Errorf("snapshot: blob too short: %d bytes, need at least %d", len(blob), headerLen)
	}
	if !bytes.Equal(blob[0:6], magic[:]) {
		return nil, fmt.Errorf("snapshot: bad magic %q", blob[0:6])
	}
	if v := binary.BigEndian.Uint16(blob[6:8]); v != Version {
		return nil, fmt.Errorf("snapshot: format version %d, this binary reads %d", v, Version)
	}
	n := binary.BigEndian.Uint64(blob[8:16])
	if n > maxPayload {
		return nil, fmt.Errorf("snapshot: declared payload length %d exceeds limit", n)
	}
	if uint64(len(blob)-headerLen) != n {
		return nil, fmt.Errorf("snapshot: payload is %d bytes, header declares %d", len(blob)-headerLen, n)
	}
	payload := blob[headerLen:]
	sum := sha256.Sum256(payload)
	if !bytes.Equal(sum[:], blob[16:headerLen]) {
		return nil, fmt.Errorf("snapshot: checksum mismatch — blob is corrupt")
	}
	st := &State{}
	// Size the log once. The count is only a hint; a payload it misjudges
	// decodes all the same.
	if n := bytes.Count(payload, recordOpen); n > 0 {
		st.Workload.Log = make([]workload.Record, 0, n)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	err := walkObject(dec, reflect.ValueOf(st).Elem(), stateKeys, "workload", func() error {
		return walkObject(dec, reflect.ValueOf(&st.Workload).Elem(), workloadKeys, "log", func() error {
			return decodeLog(dec, &st.Workload.Log)
		})
	})
	if err != nil {
		return nil, fmt.Errorf("snapshot: decode payload: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("snapshot: trailing data after payload")
	}
	return st, nil
}

// stateKeys and workloadKeys map each JSON key of State and WorkloadSnap to
// its field index; every field is tagged. Matching is exact, not folded as
// encoding/json folds it: Encode writes the tags as they are.
var (
	stateKeys    = jsonKeys(reflect.TypeOf(State{}))
	workloadKeys = jsonKeys(reflect.TypeOf(WorkloadSnap{}))
)

func jsonKeys(t reflect.Type) map[string]int {
	keys := make(map[string]int, t.NumField())
	for i := 0; i < t.NumField(); i++ {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		keys[name] = i
	}
	return keys
}

// walkObject decodes the JSON object at dec's position into the struct v
// one key at a time: the key named inner goes to walkInner, and every other
// key decodes whole into its field. A key that names no field is an error,
// as DisallowUnknownFields makes it in the fields below.
func walkObject(dec *json.Decoder, v reflect.Value, keys map[string]int, inner string, walkInner func() error) error {
	if tok, err := dec.Token(); err != nil {
		return err
	} else if tok != json.Delim('{') {
		return fmt.Errorf("%v where an object belongs", tok)
	}
	for {
		tok, err := dec.Token()
		if err != nil {
			return err
		}
		if tok == json.Delim('}') {
			return nil
		}
		key, _ := tok.(string) // where a key belongs, Token returns a string, '}' or an error
		i, ok := keys[key]
		switch {
		case !ok:
			err = fmt.Errorf("json: unknown field %q", key)
		case key == inner:
			err = walkInner()
		default:
			err = dec.Decode(v.Field(i).Addr().Interface())
		}
		if err != nil {
			return err
		}
	}
}

// decodeLog decodes the log array at dec's position into *log one record at
// a time, as encoding/json would decode it whole: each record decodes into
// the slice's next element, within its capacity before it grows (so a
// repeated log key decodes over the earlier records), null is a nil log,
// and [] an empty one.
func decodeLog(dec *json.Decoder, log *[]workload.Record) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	switch tok {
	case nil:
		*log = nil
		return nil
	case json.Delim('['):
	default:
		return fmt.Errorf("log is %v, not an array", tok)
	}
	l := (*log)[:0]
	for dec.More() {
		if len(l) < cap(l) {
			l = l[:len(l)+1]
		} else {
			l = append(l, workload.Record{})
		}
		if err := dec.Decode(&l[len(l)-1]); err != nil {
			return err
		}
	}
	if _, err := dec.Token(); err != nil {
		return err
	}
	if len(l) == 0 {
		l = []workload.Record{}
	}
	*log = l
	return nil
}
