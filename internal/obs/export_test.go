package obs

import "sort"

// At returns window idx's value (zero beyond the materialised range).
func (w *WindowSeries) At(idx int) int64 {
	if w == nil || idx < 0 || idx >= len(w.vals) {
		return 0
	}
	return w.vals[idx]
}

// SeriesStat returns a copy of k's windowed series values and its
// width, and whether the series exists.
func (r *Registry) SeriesStat(k MetricKey) (width int, vals []int64, ok bool) {
	if r == nil {
		return 0, nil, false
	}
	s, found := r.series[k]
	if !found {
		return 0, nil, false
	}
	return s.Width, s.Values(), true
}

// CounterKeys returns every counter key with a non-zero value, sorted by
// (Kind, Node, Layer).
func (r *Registry) CounterKeys() []MetricKey {
	if r == nil {
		return nil
	}
	keys := make([]MetricKey, 0, len(r.counters))
	for _, c := range r.counters {
		if c.val != 0 {
			keys = append(keys, c.key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Kind != keys[j].Kind {
			return keys[i].Kind < keys[j].Kind
		}
		if keys[i].Node != keys[j].Node {
			return keys[i].Node < keys[j].Node
		}
		return keys[i].Layer < keys[j].Layer
	})
	return keys
}

// SumKind sums every counter of the given kind across nodes and layers.
func (r *Registry) SumKind(kind string) int64 {
	if r == nil {
		return 0
	}
	var total int64
	for _, c := range r.counters {
		if c.key.Kind == kind {
			total += c.val
		}
	}
	return total
}
