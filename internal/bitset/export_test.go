package bitset

import "math/bits"

// Get reports whether bit i is set.
func Get(s []uint64, i int) bool {
	return s[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// OnesCount returns the number of set bits in the whole slice.
func OnesCount(s []uint64) int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}
