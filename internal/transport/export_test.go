package transport

import (
	"sort"

	"github.com/harpnet/harp/internal/obs"
)

// Errors returns every delivery error recorded so far.
func (b *Bus) Errors() []error {
	out := make([]error, len(b.errs))
	copy(out, b.errs)
	return out
}

// CountKeys returns the delivered class keys formatted as "METHOD path"
// and sorted.
func (b *Bus) CountKeys() []string {
	keys := make([]string, 0, len(b.classes))
	for _, c := range b.classes {
		if b.metrics.Counter(obs.Key(c.kind)) > 0 {
			keys = append(keys, c.key.String())
		}
	}
	sort.Strings(keys)
	return keys
}
