package snapshot

import (
	"reflect"
	"testing"
	"unsafe"

	"biglittle/internal/workload"
)

// TestDeepSizeBranches pins deepSize's accounting for every kind it walks.
// Sizes are derived from the types themselves, so the expectations hold on
// any word size.
func TestDeepSizeBranches(t *testing.T) {
	const (
		ptr   = int64(unsafe.Sizeof(uintptr(0)))
		str   = int64(unsafe.Sizeof(""))
		sl    = int64(unsafe.Sizeof([]int{}))
		iface = int64(unsafe.Sizeof(any(nil)))
	)
	type pair struct {
		N int64
		S string
	}
	type mixed struct {
		B   bool
		N   int32
		P   *int64
		I   any
		Arr [2]string
		Sub pair
	}
	var nilPtr *int64
	n := int64(3)

	cases := []struct {
		name string
		v    any
		want int64
	}{
		{"nil pointer", nilPtr, ptr},
		{"pointer", &n, ptr + 8},
		{"nil slice", []int32(nil), sl},
		{"flat slice counts capacity", make([]int32, 3, 10), sl + 4*10},
		{"struct slice walks elements", []pair{{1, "ab"}, {2, ""}}, sl + (8 + str + 2) + (8 + str)},
		{"nil map", map[string]int64(nil), ptr},
		{"map", map[string]int64{"abc": 1}, ptr + (str + 3) + 8},
		{"string", "hello", str + 5},
		{"flat array", [4]int32{}, 16},
		{"string array walks elements", [2]string{"a", "bc"}, (str + 1) + (str + 2)},
		{"scalar", 3.5, 8},
		{"empty struct", struct{}{}, 0},
		{"struct with nil pointer and interface", mixed{}, 1 + 4 + ptr + iface + 2*str + 8 + str},
		{"struct with live pointer and interface",
			mixed{P: &n, I: int64(7), Arr: [2]string{"x", ""}, Sub: pair{S: "yz"}},
			1 + 4 + (ptr + 8) + (iface + 8) + (2*str + 1) + (8 + str + 2)},
	}
	for _, tc := range cases {
		if got := deepSize(reflect.ValueOf(tc.v)); got != tc.want {
			t.Errorf("%s: deepSize = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestApproxBytesGrowsWithLog pins what the lab's prefix budget relies on:
// the estimate is zero for no state, and grows by exactly one record's
// worth for every record in the workload log.
func TestApproxBytesGrowsWithLog(t *testing.T) {
	if got := (*State)(nil).ApproxBytes(); got != 0 {
		t.Fatalf("nil State: ApproxBytes = %d, want 0", got)
	}
	per := deepSize(reflect.ValueOf(workload.Record{}))
	if per <= 0 {
		t.Fatalf("one record sizes to %d bytes", per)
	}
	st := sampleState()
	st.Workload.Log = []workload.Record{}
	base := st.ApproxBytes()
	prev := base
	for _, n := range []int{1, 10, 100, 1000} {
		st.Workload.Log = make([]workload.Record, n)
		got := st.ApproxBytes()
		if got <= prev {
			t.Fatalf("%d records: ApproxBytes = %d, not above %d", n, got, prev)
		}
		if want := base + int64(n)*per; got != want {
			t.Fatalf("%d records: ApproxBytes = %d, want %d", n, got, want)
		}
		prev = got
	}
}
