// Package ring is the bounded flight-recorder buffer behind telemetry's
// event log and xray's span log. A Ring keeps the newest entries up to a
// limit and overwrites the oldest beyond it. It grows in fixed-size blocks
// allocated on demand, so filling it allocates about what it keeps, where
// an append-grown slice would allocate several times that on the way.
package ring

// A block holds 1024 entries.
const (
	blockShift = 10
	blockLen   = 1 << blockShift
	blockMask  = blockLen - 1
)

// Ring keeps the newest entries recorded into it. The zero value is an
// empty ring. Like the single-threaded engine that feeds its owners, it is
// not goroutine-safe.
type Ring[T any] struct {
	blocks  [][]T
	n       int // entries held
	head    int // physical index of the oldest entry; nonzero once the ring wraps
	dropped int
}

// Next returns the slot for a new entry. max bounds the ring the way the
// owners' MaxEvents and MaxSpans do: def entries when max is zero, no bound
// when it is negative. Below the bound the slot is a fresh zero value; at
// the bound it is the oldest entry's slot, still holding that entry, so an
// entry can reuse storage it owns when the ring wraps.
func (r *Ring[T]) Next(max, def int) *T {
	if max == 0 {
		max = def
	}
	if r.head == 0 && (max < 0 || r.n < max) {
		b, off := r.n>>blockShift, r.n&blockMask
		if b == len(r.blocks) {
			r.blocks = append(r.blocks, nil)
		}
		if off == len(r.blocks[b]) {
			// A new block, or one cut short at a bound that has since risen.
			size := blockLen
			if max >= 0 {
				size = min(size, max-(r.n-off))
			}
			grown := make([]T, size)
			copy(grown, r.blocks[b])
			r.blocks[b] = grown
		}
		r.n++
		return &r.blocks[b][off]
	}
	slot := r.at(r.head)
	if r.head++; r.head == r.n {
		r.head = 0
	}
	r.dropped++
	return slot
}

// Len returns the number of entries held.
func (r *Ring[T]) Len() int { return r.n }

// Dropped returns how many entries have been overwritten.
func (r *Ring[T]) Dropped() int { return r.dropped }

// At returns the i-th entry held, oldest first (0 <= i < Len).
func (r *Ring[T]) At(i int) *T {
	if i += r.head; i >= r.n {
		i -= r.n
	}
	return r.at(i)
}

func (r *Ring[T]) at(i int) *T { return &r.blocks[i>>blockShift][i&blockMask] }
