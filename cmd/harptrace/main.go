// Command harptrace analyses the virtual-time protocol traces recorded by
// harpsim/harpbench -trace (JSONL, one obs.Event per line).
//
// Usage:
//
//	harptrace summary trace.jsonl             # per-kind event counts
//	harptrace windows trace.jsonl             # disruption windows with per-layer phases
//	harptrace recovery trace.jsonl            # failure-detector timelines: suspect -> dead -> adoptions -> readmit
//	harptrace slo trace.jsonl                 # offline SLO/health report from the trace
//	harptrace series trace.jsonl              # per-window event counts per kind
//	harptrace chrome -o out.json trace.jsonl  # convert to Chrome trace format (Perfetto)
//	harptrace cat [filters] trace.jsonl       # print matching events
//
// Filters (cat, summary, windows, recovery, slo, series):
//
//	-node N      only events touching node N (either endpoint)
//	-layer L     only events on hierarchy layer L
//	-kind K      only kinds matching K exactly or by layer prefix ("coap");
//	             repeatable as a comma-separated list
//	-from/-to V  virtual-time window [from, to] in slots
//
// The windows subcommand reconstructs each dynamic adjustment from its
// cosim.trigger/cosim.commit pair and reports the measured disruption
// window in slots, seconds and slotframes — the same quantity the
// committed cosim_disruption_s bench metric carries. The slo subcommand
// rebuilds the runtime's latency distributions (escalation→commit, CON
// RTT, detect→adopt, disruption) from the trace and grades them against
// the default budgets; series rebuilds the per-slotframe windowed event
// counts (-width overrides the window width from the trace meta).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"github.com/harpnet/harp/internal/obs"
)

var errUsage = errors.New("usage: harptrace <summary|windows|recovery|slo|series|chrome|cat> [flags] trace.jsonl")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "harptrace: %v\n", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run is the testable entry point: it parses the subcommand and flags,
// reads the trace, and writes the report to stdout. Every degenerate
// input — an empty or truncated trace, a trace with no commit events —
// returns a clear error instead of panicking or printing a half-result.
func run(args []string, stdout io.Writer) error {
	if len(args) < 1 {
		return errUsage
	}
	cmd := args[0]
	fs := flag.NewFlagSet("harptrace "+cmd, flag.ContinueOnError)
	node := fs.Int("node", obs.None, "only events touching this node")
	layer := fs.Int("layer", obs.None, "only events on this hierarchy layer")
	kinds := fs.String("kind", "", "comma-separated kinds or layer prefixes to keep")
	from := fs.Float64("from", math.Inf(-1), "minimum virtual time (slots)")
	to := fs.Float64("to", math.Inf(1), "maximum virtual time (slots)")
	out := fs.String("o", "", "output path (chrome; default stdout)")
	width := fs.Int("width", 0, "window width in slots (series; default: slots/frame from the trace meta)")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errUsage
	}
	events, err := obs.ReadJSONLFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("trace %s is empty — record one with harpsim/harpbench -trace", fs.Arg(0))
	}
	meta, hasMeta := obs.TraceMeta(events)

	f := obs.NewFilter()
	f.Node = *node
	f.Layer = *layer
	f.MinVT = *from
	f.MaxVT = *to
	if *kinds != "" {
		f.Kinds = strings.Split(*kinds, ",")
	}
	filtered := f.Apply(events)

	switch cmd {
	case "summary":
		fmt.Fprintf(stdout, "%d events (%d after filters)\n", len(events), len(filtered))
		if hasMeta {
			fmt.Fprintf(stdout, "timebase: %d slots/frame, %gs/slot, %d nodes\n",
				meta.SlotsPerFrame, meta.SlotSeconds, meta.Nodes)
		}
		for _, kc := range obs.Summarize(filtered) {
			fmt.Fprintf(stdout, "%8d  %s\n", kc.Count, kc.Kind)
		}
	case "windows":
		wins := obs.Windows(filtered)
		if len(wins) == 0 {
			return errors.New("no complete trigger/commit windows in trace (no commit events)")
		}
		for i, w := range wins {
			fmt.Fprintf(stdout, "window %d: trigger slot %d -> commit slot %d = %d slots",
				i+1, w.TriggerSlot, w.CommitSlot, w.Slots)
			if hasMeta {
				fmt.Fprintf(stdout, " (%.2fs, %d slotframes)", w.Seconds(meta), w.Slotframes(meta))
			}
			fmt.Fprintf(stdout, ", %d events\n", w.Events)
			for _, p := range w.Phases {
				fmt.Fprintf(stdout, "  %-6s %5d events  vt %.1f .. %.1f\n", p.Layer, p.Count, p.FirstVT, p.LastVT)
			}
		}
	case "recovery":
		wins := obs.RecoveryWindows(filtered)
		if len(wins) == 0 {
			return errors.New("no dead declarations in trace")
		}
		for _, w := range wins {
			fmt.Fprintf(stdout, "node %d: suspect vt %.1f -> dead vt %.1f", w.Node, w.SuspectVT, w.DeadVT)
			if hasMeta && meta.SlotsPerFrame > 0 {
				fmt.Fprintf(stdout, " (%.1f slotframes silent)", (w.DeadVT-w.SuspectVT)/float64(meta.SlotsPerFrame))
			}
			fmt.Fprintf(stdout, ", %d orphans adopted", w.Adoptions)
			if w.Adoptions > 0 {
				fmt.Fprintf(stdout, " by vt %.1f", w.LastAdoptVT)
			}
			if w.ReadmitVT >= 0 {
				fmt.Fprintf(stdout, ", readmitted vt %.1f", w.ReadmitVT)
			}
			fmt.Fprintln(stdout)
		}
	case "slo":
		if !hasMeta || meta.SlotsPerFrame <= 0 {
			return errors.New("trace has no meta event (slots/frame unknown) — re-record it with a current harpsim/harpbench")
		}
		slo := obs.ReconstructSLO(filtered)
		if slo.Commits == 0 && slo.EscCommit.Count == 0 && slo.ConRtt.Count == 0 && slo.DetectAdopt.Count == 0 {
			return errors.New("trace has no commit or latency events to grade — was the run traced end to end?")
		}
		fmt.Fprintf(stdout, "offline SLO report (%d triggers, %d commits)\n", slo.Triggers, slo.Commits)
		rep := obs.EvalHealth(slo.Registry(), slo.Converged(), 0, obs.DefaultBudgets(meta.SlotsPerFrame))
		if err := rep.WriteText(stdout); err != nil {
			return err
		}
		if slo.Disruption.Count > 0 {
			fmt.Fprintf(stdout, "  %-32s n=%-6d p50=%-8d p99=%-8d max=%-8d\n",
				obs.MetricDisruptionMs, slo.Disruption.Count,
				slo.Disruption.Quantile(0.5), slo.Disruption.Quantile(0.99), slo.Disruption.Max)
		}
	case "series":
		w := *width
		if w <= 0 {
			if !hasMeta || meta.SlotsPerFrame <= 0 {
				return errors.New("trace has no meta event — pass -width to set the window width in slots")
			}
			w = meta.SlotsPerFrame
		}
		series := obs.ReconstructSeries(filtered, w)
		if len(series) == 0 {
			return errors.New("no events after filters — nothing to window")
		}
		names := make([]string, 0, len(series))
		for k := range series {
			names = append(names, string(k))
		}
		sort.Strings(names)
		fmt.Fprintf(stdout, "window width: %d slots\n", w)
		for _, name := range names {
			s := series[obs.Kind(name)]
			fmt.Fprintf(stdout, "%s:", name)
			for _, v := range s.Values() {
				fmt.Fprintf(stdout, " %d", v)
			}
			fmt.Fprintln(stdout)
		}
	case "chrome":
		if *out != "" {
			return obs.WriteChromeFile(*out, filtered)
		}
		if err := obs.WriteChrome(stdout, filtered); err != nil {
			return err
		}
	case "cat":
		if err := obs.WriteJSONL(stdout, filtered); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown subcommand %q: %w", cmd, errUsage)
	}
	return nil
}
