package main

import (
	"runtime"
	"time"

	"github.com/harpnet/harp/internal/coap"
	"github.com/harpnet/harp/internal/core"
	"github.com/harpnet/harp/internal/packing"
	"github.com/harpnet/harp/internal/topology"
	"github.com/harpnet/harp/internal/vclock"
)

// Layer probes: isolated replays, made after the traced run, of work the
// run did inside a layer the harness cannot put a span around (the codec
// inside Bus.Send, the event heap inside Clock.Step, the packer inside
// core.Compose). Their inputs are taken from the run itself.

const (
	probeWires      = 512     // messages kept for the codec probe
	probeEventsMax  = 400_000 // events the clock probe replays at most
	probeBacklogMax = 400_000
	probeBatch      = 64 // calls per timing sample, to stay above the timer's resolution
)

// probeInputs is what the traced run collects for the probes.
type probeInputs struct {
	wires [][]byte // reservoir sample of the messages the agents sent
	sent  uint64
	lcg   uint64
	// sentApp counts application sends (keepalives aside): with the
	// retransmissions, the frames put on air for them.
	sentApp uint64

	shards      int    // clock shards the workload runs on
	dispatched  uint64 // events dispatched by the measured ops
	pendingPeak int    // highest Clock.Pending seen at an op boundary

	packUS    []float64
	packRects int
	packArea  int // cells the packed rectangles cover
	packBox   int // cells of the strips they were packed into

	traceOnMS  []float64 // testbed_lossy ops with cosim.Config.Trace on
	traceOffMS []float64 // the same ops with it off
	obsEvents  int
}

// capture keeps a uniform sample (reservoir) of the sent messages' wire
// form. The draw is a fixed LCG, so the sample depends only on the seed.
func (p *probeInputs) capture(msg coap.Message) {
	p.sent++
	slot := -1
	if len(p.wires) < probeWires {
		slot = len(p.wires)
		p.wires = append(p.wires, nil)
	} else {
		p.lcg = p.lcg*6364136223846793005 + 1442695040888963407
		if j := (p.lcg >> 33) % p.sent; j < probeWires {
			slot = int(j)
		}
	}
	if slot >= 0 {
		if w, err := msg.AppendTo(p.wires[slot][:0]); err == nil {
			p.wires[slot] = w
		}
	}
}

// observeClock records the clock state the clock probe reproduces.
func (p *probeInputs) observeClock(c *vclock.Clock) {
	if n := c.Pending(); n > p.pendingPeak {
		p.pendingPeak = n
	}
}

// replayPacking re-runs PackStrip on the child components of every
// non-leaf node of a plan, in the orientation core.Compose packs first
// (width = channels, strip = the channel budget).
func (p *probeInputs) replayPacking(plan *core.Plan) {
	tree := plan.Tree
	for _, id := range tree.NonLeaves() {
		for _, dir := range topology.Directions() {
			byLayer := make(map[int][]packing.Rect)
			for k, child := range tree.Children(id) {
				intf, ok := plan.InterfaceOf(child, dir)
				if !ok {
					continue
				}
				for layer := intf.FirstLayer; layer <= intf.LastLayer(); layer++ {
					if comp, ok := intf.Component(layer); ok && !comp.Empty() {
						byLayer[layer] = append(byLayer[layer], packing.Rect{ID: k, W: comp.Channels, H: comp.Slots})
					}
				}
			}
			for layer := 0; layer <= tree.MaxLayer()+1; layer++ {
				rects := byLayer[layer]
				if len(rects) == 0 {
					continue
				}
				t0 := time.Now()
				lay, err := packing.PackStrip(rects, plan.Frame.Channels)
				d := time.Since(t0)
				if err != nil {
					continue
				}
				p.packUS = append(p.packUS, float64(d)/float64(time.Microsecond))
				p.packRects += len(rects)
				for _, rc := range rects {
					p.packArea += rc.Area()
				}
				p.packBox += lay.W * lay.H
			}
		}
	}
}

// runProbes fills the probe-derived per-layer values.
func (r *run) runProbes() {
	p := &r.probes
	if len(p.wires) > 0 {
		r.probeCodec()
	}
	if p.dispatched > 0 {
		events := int(p.dispatched)
		if events > probeEventsMax {
			events = probeEventsMax
		}
		backlog := p.pendingPeak
		if backlog > probeBacklogMax {
			backlog = probeBacklogMax
		}
		one := probeClock(1, backlog, events)
		r.layer["vclock.ns_per_event_1shard"] = one
		r.layer["vclock.ns_per_event_autoshards"] = one
		if p.shards > 1 {
			r.layer["vclock.ns_per_event_autoshards"] = probeClock(p.shards, backlog, events)
		}
	}
	r.layer["vclock.dispatched"] = float64(p.dispatched)
	r.layer["vclock.pending_peak"] = float64(p.pendingPeak)
	if n := len(p.packUS); n > 0 {
		r.layer["packing.strip_calls"] = float64(n)
		r.layer["packing.strip_us_p50"] = median(p.packUS)
		r.layer["packing.strip_rects_mean"] = float64(p.packRects) / float64(n)
		r.layer["packing.strip_waste_share"] = 1 - float64(p.packArea)/float64(p.packBox)
	}
	if len(p.traceOnMS) > 0 && len(p.traceOffMS) > 0 {
		r.layer["obs.trace_on_ratio"] = median(p.traceOnMS) / median(p.traceOffMS)
		r.layer["obs.events_per_op"] = float64(p.obsEvents) / float64(len(p.traceOnMS))
	}
}

// probeCodec re-decodes and re-encodes the sampled messages the way the
// bus does (AppendTo into a reused buffer at Send, Decode at delivery).
func (r *run) probeCodec() {
	wires := r.probes.wires
	msgs := make([]coap.Message, 0, len(wires))
	bytes := 0
	for _, w := range wires {
		m, err := coap.Decode(w)
		if err != nil {
			continue
		}
		msgs = append(msgs, m)
		bytes += len(w)
	}
	if len(msgs) == 0 {
		return
	}
	var appendNS, decodeNS []float64
	buf := make([]byte, 0, 256)
	for i, m := range msgs {
		t0 := time.Now()
		for k := 0; k < probeBatch; k++ {
			buf, _ = m.AppendTo(buf[:0]) // these messages encoded once already
		}
		appendNS = append(appendNS, float64(time.Since(t0))/probeBatch)
		t0 = time.Now()
		for k := 0; k < probeBatch; k++ {
			_, _ = coap.Decode(wires[i])
		}
		decodeNS = append(decodeNS, float64(time.Since(t0))/probeBatch)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i, m := range msgs {
		buf, _ = m.AppendTo(buf[:0])
		_, _ = coap.Decode(wires[i])
	}
	runtime.ReadMemStats(&m1)
	r.layer["coap.append_ns_p50"] = median(appendNS)
	r.layer["coap.decode_ns_p50"] = median(decodeNS)
	r.layer["coap.allocs_per_roundtrip"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(msgs))
	r.layer["coap.msg_bytes_mean"] = float64(bytes) / float64(len(msgs))
}

// probeClock returns the host nanoseconds one schedule+dispatch pair costs
// on a fresh clock with the given shard count, holding backlog no-op
// events pending throughout, as the workload's clock does.
func probeClock(shards, backlog, events int) float64 {
	c := vclock.New()
	c.SetShards(shards)
	rng := vclock.NewStream(vclock.StreamSweep, int64(backlog)+1)
	nop := func(any) {}
	for i := 0; i < backlog; i++ {
		c.ScheduleArgIn(i%shards, rng.Float64()*1000, nop, nil)
	}
	t0 := time.Now()
	for i := 0; i < events; i++ {
		c.ScheduleArgIn(i%shards, c.Now()+rng.Float64()*1000, nop, nil)
		c.Step()
	}
	return float64(time.Since(t0)) / float64(events)
}
