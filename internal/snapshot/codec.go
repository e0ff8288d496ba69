package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"

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
// version gate refuses skewed formats; DisallowUnknownFields refuses
// payloads written by a newer State shape under the same version. Decode
// returns errors for every malformed input — it never panics.

var magic = [6]byte{'B', 'L', 'S', 'N', 'A', 'P'}

const headerLen = 6 + 2 + 8 + sha256.Size

// maxPayload bounds a blob's declared payload length. Real snapshots are a
// few hundred KB; the bound keeps a corrupt length field from driving a
// huge allocation.
const maxPayload = 1 << 30

// Encode serializes st into a self-describing, checksummed blob. The
// payload is the json.Marshal encoding of st, written once, behind a gap
// the header fills in.
func Encode(st *State) ([]byte, error) {
	if st == nil {
		return nil, fmt.Errorf("snapshot: encode nil state")
	}
	var buf bytes.Buffer
	buf.Write(make([]byte, headerLen))
	if err := json.NewEncoder(&buf).Encode(st); err != nil {
		return nil, fmt.Errorf("snapshot: encode: %w", err)
	}
	out := buf.Bytes()
	out = out[:len(out)-1] // the newline Encoder.Encode adds and Marshal does not
	payload := out[headerLen:]
	copy(out[0:6], magic[:])
	binary.BigEndian.PutUint16(out[6:8], Version)
	binary.BigEndian.PutUint64(out[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(out[16:headerLen], sum[:])
	return out, nil
}

// recordOpen opens every workload.Record in a payload: Kind is its first
// field and has no omitempty, and no other type in a State uses the key.
var recordOpen = []byte(`{"k":`)

// Decode parses a blob produced by Encode, verifying magic, version,
// length, and checksum before unmarshalling. Any corruption, truncation,
// or version skew yields an error.
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
	// Size the log once: encoding/json appends into existing capacity. The
	// count is only a hint; a payload it misjudges decodes all the same.
	if n := bytes.Count(payload, recordOpen); n > 0 {
		st.Workload.Log = make([]workload.Record, 0, n)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(st); err != nil {
		return nil, fmt.Errorf("snapshot: decode payload: %w", err)
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil || len(trailing) > 0 {
		return nil, fmt.Errorf("snapshot: trailing data after payload")
	}
	return st, nil
}
