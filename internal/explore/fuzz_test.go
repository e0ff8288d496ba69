package explore

import (
	"reflect"
	"strings"
	"testing"
)

// renderSpec writes dims back in the ParseSpec format, one "key=v1,v2" line
// per dimension.
func renderSpec(dims []Dim) string {
	lines := make([]string, len(dims))
	for i, d := range dims {
		lines[i] = d.Key + "=" + strings.Join(d.Values, ",")
	}
	return strings.Join(lines, "\n")
}

// FuzzParseSpec: the space-spec parser never panics, every dimension it
// accepts has a key and at least one value, and rendering what it accepted
// parses back to the same dimensions.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"# governor tunables\nsample-ms = 20, 40\n\ntarget-load=80,90 # late comment\n",
		"governor=interactive,performance,powersave,userspace,ondemand,conservative,past",
		"cores=L4+B4,L4\nseed=1,2\n",
		"sample-ms\n",
		"# only comments\n",
		"up=,\n",
		"=1",
		"a=b=c,,d",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		dims, err := ParseSpec(text)
		if err != nil {
			return
		}
		for _, d := range dims {
			if d.Key == "" || len(d.Values) == 0 {
				t.Fatalf("ParseSpec(%q) accepted dimension %+v", text, d)
			}
		}
		again, err := ParseSpec(renderSpec(dims))
		if err != nil {
			t.Fatalf("ParseSpec(%q) = %+v, whose rendering fails to parse: %v", text, dims, err)
		}
		if !reflect.DeepEqual(again, dims) {
			t.Fatalf("ParseSpec(%q) = %+v, but its rendering parses to %+v", text, dims, again)
		}
	})
}
