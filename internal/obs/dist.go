package obs

import (
	"math"
	"math/bits"
)

// Distribution metrics: a power-of-two-bucketed histogram and a
// fixed-width virtual-time windowed series. Both are integer-only —
// observations, bucket counts and window sums are int64 — so two runs
// with the same seeds produce bit-identical distributions at any
// -workers or shard count, and quantiles derived from them are exact,
// not floating-point folds whose value depends on observation order.
//
// Latency observations are made in milli-slots: the virtual-time delta
// in slots times 1000, truncated to int64. One unit is a thousandth of
// a slot — fine enough that the truncation never merges distinct
// protocol timings, coarse enough that 64 buckets cover any run.

// histBuckets is one bucket per possible bits.Len64 value (0..64).
const histBuckets = 65

// Hist is a power-of-two-bucketed histogram of int64 observations.
// Bucket i counts values v with bits.Len64(uint64(v)) == i: bucket 0
// holds v <= 0 and bucket i holds 2^(i-1) <= v < 2^i, so the upper
// bound of bucket i is 2^i - 1. The zero value is an empty, usable
// histogram, and the struct is plain data: copy it to snapshot it.
type Hist struct {
	// Buckets are the per-bucket observation counts.
	Buckets [histBuckets]int64
	// Count is the number of observations; Sum their total.
	Count int64
	Sum   int64
	// Min and Max bound the observations exactly (zero when Count is 0).
	Min, Max int64
}

// Observe folds one value into the histogram. Safe (a no-op) on the
// nil receiver, so disabled call sites stay unguarded and free.
//
//harplint:hotpath
func (h *Hist) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.Buckets[i]++
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
}

// bucketUpper returns bucket i's inclusive upper bound.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxInt64
	}
	return (int64(1) << uint(i)) - 1
}

// Quantile returns the q-quantile (q in [0,1]) as the upper bound of
// the bucket holding the rank-ceil(q*Count) observation, clamped to the
// exact [Min, Max] range. Zero when the histogram is empty. The result
// is a deterministic function of the bucket counts alone.
func (h *Hist) Quantile(q float64) int64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.Count)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.Count {
		rank = h.Count
	}
	var cum int64
	for i := 0; i < histBuckets; i++ {
		cum += h.Buckets[i]
		if cum >= rank {
			ub := bucketUpper(i)
			if ub > h.Max {
				ub = h.Max
			}
			if ub < h.Min {
				ub = h.Min
			}
			return ub
		}
	}
	return h.Max
}

// Merge folds other into h bucket-wise. Merging is commutative and
// associative, so cross-point aggregation (a sweep merging per-PDR
// histograms) is independent of merge order. Nil-safe on both sides.
func (h *Hist) Merge(other *Hist) {
	if h == nil || other == nil || other.Count == 0 {
		return
	}
	if h.Count == 0 || other.Min < h.Min {
		h.Min = other.Min
	}
	if h.Count == 0 || other.Max > h.Max {
		h.Max = other.Max
	}
	h.Count += other.Count
	h.Sum += other.Sum
	for i := range other.Buckets {
		h.Buckets[i] += other.Buckets[i]
	}
}

// WindowSeries is a fixed-width virtual-time series: value i covers
// slots [i*Width, (i+1)*Width). Counters feed it with Add at the slot
// of each event; gauges are sampled into it with Set at window
// boundaries. Storage grows on demand through the receiver-rooted
// backing slice, so steady-state writes allocate nothing.
type WindowSeries struct {
	// Width is the window width in slots (a slotframe, conventionally).
	Width int
	vals  []int64
}

// grow extends the backing slice to cover window index idx.
//
//harplint:hotpath
func (w *WindowSeries) grow(idx int) {
	for len(w.vals) <= idx {
		w.vals = append(w.vals, 0)
	}
}

// Add adds delta to the window covering the given absolute slot. Safe
// (a no-op) on the nil receiver and on out-of-domain input.
//
//harplint:hotpath
func (w *WindowSeries) Add(slot int, delta int64) {
	if w == nil || w.Width <= 0 || slot < 0 {
		return
	}
	idx := slot / w.Width
	w.grow(idx)
	w.vals[idx] += delta
}

// Set records a sampled value for the given window index (gauge-style).
// Safe (a no-op) on the nil receiver and on negative indices.
func (w *WindowSeries) Set(window int64, v int64) {
	if w == nil || window < 0 {
		return
	}
	w.grow(int(window))
	w.vals[window] = v
}

// Len returns the number of materialised windows.
func (w *WindowSeries) Len() int {
	if w == nil {
		return 0
	}
	return len(w.vals)
}

// Values returns a copy of the materialised windows.
func (w *WindowSeries) Values() []int64 {
	if w == nil || len(w.vals) == 0 {
		return nil
	}
	out := make([]int64, len(w.vals))
	copy(out, w.vals)
	return out
}
