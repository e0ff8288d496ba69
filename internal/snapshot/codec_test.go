package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"biglittle/internal/delta"
	"biglittle/internal/event"
	"biglittle/internal/platform"
	"biglittle/internal/workload"
)

func sampleState() *State {
	return &State{
		App:       "browser",
		Seed:      7,
		Cores:     platform.CoreConfig{Little: 4, Big: 4},
		SchedKind: "hmp",
		GovKind:   "interactive",
		Time:      3 * event.Second,
		Duration:  10 * event.Second,
		Engine:    EngineSnap{Now: 3 * event.Second, Seq: 991, Fired: 874},
		Workload: WorkloadSnap{
			Log: []workload.Record{
				{Kind: workload.RecFire, Wid: 0, At: event.Second},
				{Kind: workload.RecSeg, Th: 1, At: 2 * event.Second},
			},
			Pending:  []workload.PendingEvent{{Wid: 3, At: 4 * event.Second, Seq: 870}},
			Threads:  2,
			Frames:   []event.Time{event.Second, 2 * event.Second},
			LatTotal: 40 * event.Millisecond,
			LatMax:   25 * event.Millisecond,
			LatN:     3,
		},
		Delta: &delta.Snap{Window: 29296875, Cur: 102, Acc: 0xdeadbeef, Cum: 0xfeedface,
			Sealed: []uint64{1, 2, 3}},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	st := sampleState()
	blob, err := Encode(st)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(st, got) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", st, got)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	a, err := Encode(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Encode(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two encodings of the same state differ")
	}
}

// TestEncodeFramesMarshal pins the blob to the framing of json.Marshal's
// payload byte for byte, HTML escaping included, though Encode writes the
// log by hand into a blob it sizes first: records with every field zero or
// set, at the extremes of their types, and nil, empty and one-record logs.
func TestEncodeFramesMarshal(t *testing.T) {
	logs := map[string][]workload.Record{
		"sample": sampleState().Workload.Log,
		"nil":    nil,
		"empty":  {},
		"one":    {{Kind: workload.RecSeg, Th: 7, At: 123456789}},
		"extremes": {
			{},
			{Kind: 255, Wid: -1, Th: math.MinInt64, At: math.MaxInt64},
			{Kind: workload.RecFire, Wid: math.MaxInt64, Th: -10, At: math.MinInt64},
			{Kind: workload.RecFire, Wid: 9, At: 10},
			{Kind: workload.RecSeg, Th: 99, At: 1e18},
		},
	}
	for name, log := range logs {
		st := sampleState()
		st.App = "<a&b>"
		st.Workload.Log = log
		payload, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := Encode(st)
		if err != nil {
			t.Fatal(err)
		}
		if want := frame(payload); !bytes.Equal(blob, want) {
			t.Errorf("%s: Encode gave %d bytes, header ++ json.Marshal gives %d (or they differ)", name, len(blob), len(want))
		}
		if cap(blob) != len(blob) {
			t.Errorf("%s: blob has len %d cap %d, want one allocation of its length", name, len(blob), cap(blob))
		}
	}
}

// TestDecodeSizesLogOnce pins that the decoded log is allocated once at its
// length, and that the record count is only a hint: a payload whose records
// the count misses decodes to the same State.
func TestDecodeSizesLogOnce(t *testing.T) {
	st := sampleState()
	payload, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(frame(payload))
	if err != nil {
		t.Fatal(err)
	}
	if log := got.Workload.Log; len(log) != 2 || cap(log) != 2 {
		t.Fatalf("decoded log has len %d cap %d, want 2 and 2", len(log), cap(log))
	}
	spaced := bytes.ReplaceAll(payload, recordOpen, []byte(`{ "k":`))
	if bytes.Equal(spaced, payload) {
		t.Fatal("payload has no record to hide from the count")
	}
	got, err = Decode(frame(spaced))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatal("a payload the record count misses decodes to another State")
	}
}

func TestEncodeNil(t *testing.T) {
	if _, err := Encode(nil); err == nil {
		t.Fatal("Encode(nil) succeeded")
	}
}

func TestDecodeRejections(t *testing.T) {
	blob, err := Encode(sampleState())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func([]byte) []byte
		want string
	}{
		{"empty", func(b []byte) []byte { return nil }, "too short"},
		{"truncated header", func(b []byte) []byte { return b[:headerLen-1] }, "too short"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "bad magic"},
		{"version skew", func(b []byte) []byte {
			binary.BigEndian.PutUint16(b[6:8], Version+1)
			return b
		}, "format version"},
		{"huge declared length", func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[8:16], maxPayload+1)
			return b
		}, "exceeds limit"},
		{"length mismatch", func(b []byte) []byte {
			binary.BigEndian.PutUint64(b[8:16], uint64(len(b)-headerLen+5))
			return b
		}, "header declares"},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-7] }, "header declares"},
		{"flipped payload bit", func(b []byte) []byte {
			b[headerLen+10] ^= 0x40
			return b
		}, "checksum"},
		{"flipped checksum bit", func(b []byte) []byte {
			b[20] ^= 0x01
			return b
		}, "checksum"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.mut(append([]byte(nil), blob...))
			_, err := Decode(b)
			if err == nil {
				t.Fatal("Decode accepted a corrupt blob")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestDecodeUnknownField pins the skew guard: a payload with a field this
// State shape does not declare is refused even when the checksum is valid.
func TestDecodeUnknownField(t *testing.T) {
	payload := []byte(`{"app":"x","futureField":1}`)
	blob := frame(payload)
	if _, err := Decode(blob); err == nil || !strings.Contains(err.Error(), "decode payload") {
		t.Fatalf("unknown field not rejected: %v", err)
	}
}

func TestDecodeTrailingData(t *testing.T) {
	payload := []byte(`{"app":"x"} {"more":true}`)
	blob := frame(payload)
	if _, err := Decode(blob); err == nil {
		t.Fatal("trailing JSON accepted")
	}
}

func TestDecodeMalformedJSON(t *testing.T) {
	blob := frame([]byte(`{"app":`))
	if _, err := Decode(blob); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

// TestDecodePayloadRejections pins what the walk over the State and
// workload objects refuses: malformed and truncated JSON at every level it
// walks, a log that is no array, trailing data whether or not it is JSON,
// and the inputs Encode never writes that encoding/json would accept (a
// null State or workload, and keys spelled other than their tags).
func TestDecodePayloadRejections(t *testing.T) {
	cases := []struct{ payload, want string }{
		{``, "decode payload"},
		{`{`, "decode payload"},
		{`{"app":"x"`, "decode payload"},
		{`{"app":"x",}`, "decode payload"},
		{`{"app" "x"}`, "decode payload"},
		{`{"workload":`, "decode payload"},
		{`{"workload":{`, "decode payload"},
		{`{"workload":[]}`, "decode payload"},
		{`{"workload":{"log":[`, "decode payload"},
		{`{"workload":{"log":[{"k":1}`, "decode payload"},
		{`{"workload":{"log":[{"k":1}}}`, "decode payload"},
		{`{"workload":{"log":[{"k":1} {"k":2}]}}`, "decode payload"},
		{`{"workload":{"log":{"k":1}}}`, "decode payload"},
		{`{"workload":{"log":7}}`, "decode payload"},
		{`{"workload":{"log":[{"k":1,"x":2}]}}`, "decode payload"},
		{`{"workload":{"frames":"x"}}`, "decode payload"},
		{`null`, "decode payload"},
		{`{"workload":null}`, "decode payload"},
		{`{"APP":"x"}`, `unknown field "APP"`},
		{`{"workload":{"Log":[]}}`, `unknown field "Log"`},
		{`{"gov":{"lastBusy":[1],"hispeedSince":[-1,-1]}}`, `unknown field "hispeedSince"`},
		{`{"customPlatform":true}`, `unknown field "customPlatform"`},
		{`{"app":"x"} }`, "trailing data"},
	}
	for _, tc := range cases {
		_, err := Decode(frame([]byte(tc.payload)))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got error %v, want one naming %q", tc.payload, err, tc.want)
		}
	}
}

func TestPendingEventsAccounting(t *testing.T) {
	st := sampleState()
	if got := st.PendingEvents(); got != 1 {
		t.Fatalf("PendingEvents = %d, want 1 (the workload event)", got)
	}
	st.Sched.TickPending = true
	st.Gov.SamplePending = true
	st.Metrics.SamplePending = true
	if got := st.PendingEvents(); got != 4 {
		t.Fatalf("PendingEvents = %d, want 4", got)
	}
}

// frame wraps payload in a valid header (correct length and checksum) so
// tests can exercise the JSON layer in isolation.
func frame(payload []byte) []byte {
	head := make([]byte, headerLen)
	copy(head[0:6], magic[:])
	binary.BigEndian.PutUint16(head[6:8], Version)
	binary.BigEndian.PutUint64(head[8:16], uint64(len(payload)))
	sum := sha256.Sum256(payload)
	copy(head[16:headerLen], sum[:])
	return append(head, payload...)
}
