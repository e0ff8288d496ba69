package snapshot

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"

	"biglittle/internal/workload"
)

// FuzzDecode drives the codec with arbitrary blobs: Decode must either
// return an error or a State that round-trips — and must never panic,
// whatever the corruption, truncation, or version skew. make fuzz-smoke
// runs this briefly on every CI pass.
func FuzzDecode(f *testing.F) {
	good, err := Encode(sampleState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte("BLSNAP"))
	f.Add(good[:headerLen])
	f.Add(good[:len(good)-1])
	f.Add(append(append([]byte(nil), good...), 0))
	tampered := append([]byte(nil), good...)
	tampered[headerLen+3] ^= 0xff
	f.Add(tampered)
	skewed := append([]byte(nil), good...)
	skewed[7] = 99
	f.Add(skewed)
	f.Add(frame([]byte(`{"app":"x","bogus":[]}`)))

	f.Fuzz(func(t *testing.T, blob []byte) {
		st, err := Decode(blob)
		if err != nil {
			if st != nil {
				t.Fatal("Decode returned both a state and an error")
			}
			return
		}
		// Accepted blobs must round-trip: the decoded state re-encodes and
		// re-decodes to an equal value.
		re, err := Encode(st)
		if err != nil {
			t.Fatalf("re-encode of accepted state failed: %v", err)
		}
		st2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(st, st2) {
			t.Fatal("accepted state does not round-trip")
		}
	})
}

// decodeWhole is the decoder Decode replaced: one json.Decoder with
// DisallowUnknownFields decodes the whole payload into a State whose log
// the record count presizes, and a second value after it is refused.
// FuzzDecodePayload holds Decode to it.
func decodeWhole(payload []byte) (*State, error) {
	st := &State{}
	if n := bytes.Count(payload, recordOpen); n > 0 {
		st.Workload.Log = make([]workload.Record, 0, n)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	if err := dec.Decode(st); err != nil {
		return nil, err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err == nil || len(trailing) > 0 {
		return nil, fmt.Errorf("trailing data after payload")
	}
	return st, nil
}

// encodeNeverWrites names the way payload differs from anything Encode
// writes, for the payloads that decodeWhole accepts and Decode may refuse:
//   - a null State, which decodeWhole reads as the zero State;
//   - a null workload, which it reads as the zero workload;
//   - a State or workload key spelled other than its tag, which
//     encoding/json matches case-insensitively and Decode exactly;
//   - bytes after the State that are not a JSON value, which decodeWhole's
//     trailing-data check lets through.
//
// It returns "" for a payload that is none of these.
func encodeNeverWrites(payload []byte) string {
	dec := json.NewDecoder(bytes.NewReader(payload))
	var top json.RawMessage
	if dec.Decode(&top) != nil {
		return ""
	}
	if len(bytes.TrimSpace(payload[dec.InputOffset():])) > 0 {
		return "bytes after the State that are not a JSON value"
	}
	if string(top) == "null" {
		return "a null State"
	}
	var why string
	walkKeys(top, func(key string, val json.RawMessage) {
		switch _, ok := stateKeys[key]; {
		case !ok:
			why = "a State key spelled other than its tag"
		case key == "workload" && string(val) == "null":
			why = "a null workload"
		case key == "workload":
			walkKeys(val, func(key string, _ json.RawMessage) {
				if _, ok := workloadKeys[key]; !ok {
					why = "a workload key spelled other than its tag"
				}
			})
		}
	})
	return why
}

// walkKeys calls visit with each key of the JSON object obj and its value,
// in order, duplicates included.
func walkKeys(obj json.RawMessage, visit func(key string, val json.RawMessage)) {
	dec := json.NewDecoder(bytes.NewReader(obj))
	if _, err := dec.Token(); err != nil {
		return
	}
	for dec.More() {
		tok, err := dec.Token()
		var val json.RawMessage
		if err != nil || dec.Decode(&val) != nil {
			return
		}
		key, _ := tok.(string)
		visit(key, val)
	}
}

// FuzzDecodePayload drives the JSON layer under a valid header, which
// FuzzDecode's mutations of whole blobs rarely reach past the checksum.
// Wherever decodeWhole, the decoder Decode replaced, accepts a payload,
// Decode must return a State deeply equal to decodeWhole's or refuse a
// payload that encodeNeverWrites names; wherever decodeWhole refuses one,
// Decode must refuse it too.
func FuzzDecodePayload(f *testing.F) {
	prefix, err := os.ReadFile("testdata/prefix.json") // fifa15's default run captured at 500 ms
	if err != nil {
		f.Fatal(err)
	}
	sample, err := json.Marshal(sampleState())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(prefix)
	f.Add(sample)
	f.Add(bytes.ReplaceAll(sample, recordOpen, []byte(`{ "k" :`)))
	f.Add([]byte(`{"app":"x","workload":{"log":[]}}`))
	f.Add([]byte(`{"app":"x","workload":{"log":null}}`))
	f.Add([]byte(`{"app":"x","app":"y","workload":{"log":[{"k":1,"w":5,"at":9}],"log":[{"k":2}]}}`))
	f.Add([]byte(`{"app":"x","workload":{"log":[{"k":1}],"threads":2},"workload":{"log":[],"latN":1}}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`{"APP":"x","workload":null}`))
	f.Add([]byte(`{"app":"x"} }`))

	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := Decode(frame(payload))
		want, wantErr := decodeWhole(payload)
		switch {
		case err == nil && wantErr != nil:
			t.Fatalf("Decode accepted a payload the whole-payload decoder refuses: %v", wantErr)
		case err == nil && !reflect.DeepEqual(got, want):
			t.Fatalf("Decode and the whole-payload decoder disagree:\n  Decode %+v\n  whole  %+v", got, want)
		case err != nil && wantErr == nil && encodeNeverWrites(payload) == "":
			t.Fatalf("Decode refused a payload the whole-payload decoder accepts: %v", err)
		}
	})
}
