//go:build !harpdebug

package cosim

import (
	"github.com/harpnet/harp/internal/agent"
	"github.com/harpnet/harp/internal/schedule"
)

// debugChecks gates the invariant sweep at every schedule commit point.
// The default build skips it; `-tags harpdebug` enables it (see
// debug_on.go).
const debugChecks = false

// debugCheckView is the harpdebug comparison of the fleet's maintained
// schedule view against a from-scratch walk; a no-op in the default build.
func debugCheckView(*agent.Fleet, *schedule.Schedule) {}
