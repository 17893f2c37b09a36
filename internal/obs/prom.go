package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
)

// Prometheus text exposition (format 0.0.4) of a registry snapshot.
// The output is a pure function of the snapshot: families are sorted
// by name, samples within a family keep the snapshot's (node, layer,
// kind) order, and no timestamps are emitted — so the exposition of a
// deterministic run is golden-diffable byte for byte.

// promName sanitises a metric kind into a Prometheus metric name:
// "harp_" plus the kind with every non-[a-zA-Z0-9_] byte mapped to '_'.
func promName(kind string) string {
	var b strings.Builder
	b.Grow(len(kind) + 5)
	b.WriteString("harp_") //harplint:allow errcheck strings.Builder writes never fail
	for i := 0; i < len(kind); i++ {
		c := kind[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_':
			b.WriteByte(c) //harplint:allow errcheck strings.Builder writes never fail
		default:
			b.WriteByte('_') //harplint:allow errcheck strings.Builder writes never fail
		}
	}
	return b.String()
}

// promLabels renders the node/layer label set ("" when both are None).
// extra, if non-empty, is appended as-is (used for the le bucket label).
func promLabels(k MetricKey, extra string) string {
	var parts []string
	if k.Node != None {
		parts = append(parts, fmt.Sprintf("node=%q", fmt.Sprint(k.Node)))
	}
	if k.Layer != None {
		parts = append(parts, fmt.Sprintf("layer=%q", fmt.Sprint(k.Layer)))
	}
	if extra != "" {
		parts = append(parts, extra)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// promFamily is one metric family: a TYPE line plus its samples.
type promFamily struct {
	typ   string
	lines []string
}

// WritePrometheus renders the snapshot. Counters map to counter
// families, distributions to histogram families with power-of-two le
// bounds (buckets above the observed maximum are folded into +Inf). Windowed series are not exposed here
// — they are a time dimension Prometheus scrapes cannot carry — and
// are served as JSON on /series instead.
func WritePrometheus(w io.Writer, s Snapshot) error {
	fams := make(map[string]*promFamily)
	family := func(name, typ string) *promFamily {
		f := fams[name]
		if f == nil {
			f = &promFamily{typ: typ}
			fams[name] = f
		}
		return f
	}
	for _, c := range s.Counters {
		name := promName(c.Key.Kind)
		f := family(name, "counter")
		f.lines = append(f.lines, fmt.Sprintf("%s%s %d", name, promLabels(c.Key, ""), c.Value))
	}
	for _, d := range s.Dists {
		name := promName(d.Key.Kind)
		f := family(name, "histogram")
		h := d.Hist
		top := 0
		if h.Max > 0 {
			top = bits.Len64(uint64(h.Max))
		}
		var cum int64
		for i := 0; i <= top && i < histBuckets; i++ {
			cum += h.Buckets[i]
			le := fmt.Sprintf("le=%q", fmt.Sprint(bucketUpper(i)))
			f.lines = append(f.lines, fmt.Sprintf("%s_bucket%s %d", name, promLabels(d.Key, le), cum))
		}
		f.lines = append(f.lines, fmt.Sprintf("%s_bucket%s %d", name, promLabels(d.Key, `le="+Inf"`), h.Count))
		f.lines = append(f.lines, fmt.Sprintf("%s_sum%s %d", name, promLabels(d.Key, ""), h.Sum))
		f.lines = append(f.lines, fmt.Sprintf("%s_count%s %d", name, promLabels(d.Key, ""), h.Count))
	}

	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		for _, line := range f.lines {
			if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
				return err
			}
		}
	}
	return nil
}
