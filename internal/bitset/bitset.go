// Package bitset provides word-level operations on []uint64 bit vectors.
// It is the shared occupancy representation of the packing grid (a slotframe
// region is a few thousand cells — a handful of words per row) and the MAC
// simulator's per-slotframe activity mask (which slot-in-frame indices have a
// scheduled cell with a non-empty queue). Both need the same primitives:
// range tests, range fills and next-set-bit scans, each a few word
// operations instead of a bool-per-cell loop.
//
// All functions treat the slice as a little-endian bit vector: bit i lives in
// word i/64 at position i%64. Functions taking a logical length n never read
// bits at or beyond n, and the fill and clear helpers here never touch bits
// outside the requested range.
package bitset

import "math/bits"

const wordBits = 64

// Words returns the number of uint64 words needed to hold n bits.
func Words(n int) int { return (n + wordBits - 1) / wordBits }

// Set sets bit i.
func Set(s []uint64, i int) {
	s[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func Clear(s []uint64, i int) {
	s[i/wordBits] &^= 1 << uint(i%wordBits)
}

// mask returns a word with bits [lo, hi) set, for 0 <= lo <= hi <= 64.
func mask(lo, hi uint) uint64 {
	if hi == wordBits {
		return ^uint64(0) << lo
	}
	return (1<<hi - 1) &^ (1<<lo - 1)
}

// SetRange sets bits [lo, hi). A degenerate range (lo >= hi) is a no-op.
func SetRange(s []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo/wordBits, (hi-1)/wordBits
	if lw == hw {
		s[lw] |= mask(uint(lo%wordBits), uint((hi-1)%wordBits)+1)
		return
	}
	s[lw] |= mask(uint(lo%wordBits), wordBits)
	for w := lw + 1; w < hw; w++ {
		s[w] = ^uint64(0)
	}
	s[hw] |= mask(0, uint((hi-1)%wordBits)+1)
}

// ClearRange clears bits [lo, hi). A degenerate range (lo >= hi) is a no-op.
func ClearRange(s []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	lw, hw := lo/wordBits, (hi-1)/wordBits
	if lw == hw {
		s[lw] &^= mask(uint(lo%wordBits), uint((hi-1)%wordBits)+1)
		return
	}
	s[lw] &^= mask(uint(lo%wordBits), wordBits)
	for w := lw + 1; w < hw; w++ {
		s[w] = 0
	}
	s[hw] &^= mask(0, uint((hi-1)%wordBits)+1)
}

// AnyInRange reports whether any bit in [lo, hi) is set.
func AnyInRange(s []uint64, lo, hi int) bool {
	if lo >= hi {
		return false
	}
	lw, hw := lo/wordBits, (hi-1)/wordBits
	if lw == hw {
		return s[lw]&mask(uint(lo%wordBits), uint((hi-1)%wordBits)+1) != 0
	}
	if s[lw]&mask(uint(lo%wordBits), wordBits) != 0 {
		return true
	}
	for w := lw + 1; w < hw; w++ {
		if s[w] != 0 {
			return true
		}
	}
	return s[hw]&mask(0, uint((hi-1)%wordBits)+1) != 0
}

// NextSet returns the index of the first set bit at or after from, scanning
// the first n bits. ok is false when no bit in [from, n) is set.
func NextSet(s []uint64, n, from int) (int, bool) {
	if from < 0 {
		from = 0
	}
	if from >= n {
		return 0, false
	}
	w := from / wordBits
	cur := s[w] &^ (1<<uint(from%wordBits) - 1)
	for {
		if cur != 0 {
			i := w*wordBits + bits.TrailingZeros64(cur)
			if i >= n {
				return 0, false
			}
			return i, true
		}
		w++
		if w*wordBits >= n {
			return 0, false
		}
		cur = s[w]
	}
}

// NextSetWrap returns the index of the first set bit at or after from in a
// circular n-bit vector: it scans [from, n) and then wraps to [0, from). ok
// is false when no bit at all is set in the first n bits.
func NextSetWrap(s []uint64, n, from int) (int, bool) {
	if i, ok := NextSet(s, n, from); ok {
		return i, true
	}
	return NextSet(s, from, 0)
}

// FirstFreeRun returns the lowest x such that bits [x, x+w) are all clear
// within the first n bits (a run of w free slots in an occupancy row). ok is
// false when no such run exists. w must be positive.
func FirstFreeRun(s []uint64, n, w int) (int, bool) {
	for x := 0; x+w <= n; {
		// Find the first occupied bit in the candidate window; the run can
		// only start after it.
		if i, ok := NextSet(s, x+w, x); ok {
			x = i + 1
			continue
		}
		return x, true
	}
	return 0, false
}

// Or sets dst |= src word-wise over len(dst) words.
func Or(dst, src []uint64) {
	for i := range dst {
		dst[i] |= src[i]
	}
}
