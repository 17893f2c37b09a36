package core

// LayoutValid reports whether a committed layout is a consistent placement
// of the given child components inside a slots x channels host: every
// placed non-empty component sits fully in bounds, and no two overlap.
// layout and comps are by child slot. The adjustment watchdog uses it
// (under harpdebug) to assert that rolling an aborted escalation back
// really lands on a consistent committed state.
func LayoutValid(slots, channels int, layout Layout, comps []Component) bool {
	for i, off := range layout {
		if !off.Placed {
			continue
		}
		if i >= len(comps) {
			return false
		}
		c := comps[i]
		if c.Empty() {
			continue
		}
		if off.Slot < 0 || off.Channel < 0 ||
			off.Slot+c.Slots > slots || off.Channel+c.Channels > channels {
			return false
		}
		for k, oo := range layout[:i] {
			if !oo.Placed {
				continue
			}
			oc := comps[k]
			if oc.Empty() {
				continue
			}
			if off.Slot < oo.Slot+oc.Slots && oo.Slot < off.Slot+c.Slots &&
				off.Channel < oo.Channel+oc.Channels && oo.Channel < off.Channel+c.Channels {
				return false
			}
		}
	}
	return true
}
