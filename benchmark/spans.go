package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// maxSpans bounds the in-memory span log (40 B a span). A traced run stops
// starting new reps once it is full; spans begun after that are dropped
// and counted.
const maxSpans = 2_000_000

// span is one timed call into a layer, recorded from the benchmark's own
// files. Times are nanoseconds since the recorder was made.
type span struct {
	name   string
	start  int64
	end    int64
	parent int32 // index of the enclosing span, -1 for a root
	op     int32 // ops share an id across their spans
}

// recorder keeps spans in memory until the run ends. The nil recorder (an
// untraced run) and a recorder that is off (the unspanned twin pass of a
// traced run) record nothing.
type recorder struct {
	t0      time.Time
	on      bool
	spans   []span
	stack   []int32
	op      int32
	dropped int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (rc *recorder) full() bool { return rc != nil && len(rc.spans) >= maxSpans }

// nextOp starts a new op id and discards any spans a failed op left open.
func (rc *recorder) nextOp() {
	if rc == nil {
		return
	}
	rc.op++
	rc.stack = rc.stack[:0]
}

// begin opens a span under the innermost open one and returns its handle
// (-1 when nothing is recorded). Reading the wall clock is the recorder's
// job; the agents reach it only through the harness's spanNet wrapper.
//
//harplint:realtime
func (rc *recorder) begin(name string) int32 {
	if rc == nil || !rc.on {
		return -1
	}
	if len(rc.spans) >= maxSpans {
		rc.dropped++
		return -1
	}
	parent := int32(-1)
	if n := len(rc.stack); n > 0 {
		parent = rc.stack[n-1]
	}
	i := int32(len(rc.spans))
	rc.spans = append(rc.spans, span{name: name, parent: parent, op: rc.op, start: int64(time.Since(rc.t0))})
	rc.stack = append(rc.stack, i)
	return i
}

// end closes the span begin returned.
//
//harplint:realtime
func (rc *recorder) end(i int32) {
	if i < 0 {
		return
	}
	rc.spans[i].end = int64(time.Since(rc.t0))
	if n := len(rc.stack); n > 0 && rc.stack[n-1] == i {
		rc.stack = rc.stack[:n-1]
	}
}

// spanStat aggregates the closed spans of one name.
type spanStat struct {
	calls int
	self  float64   // ns, minus the part child spans cover
	durs  []float64 // ns, one per span, children included
}

// aggregate folds the log into per-name statistics. A span's self time is
// its duration minus its direct children's durations.
func (rc *recorder) aggregate() map[string]*spanStat {
	out := make(map[string]*spanStat)
	if rc == nil {
		return out
	}
	child := make([]int64, len(rc.spans))
	for _, s := range rc.spans {
		if s.end != 0 && s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	for i, s := range rc.spans {
		if s.end == 0 {
			continue // left open by a failed op
		}
		st := out[s.name]
		if st == nil {
			st = &spanStat{}
			out[s.name] = st
		}
		d := float64(s.end - s.start)
		st.calls++
		st.self += d - float64(child[i])
		st.durs = append(st.durs, d)
	}
	return out
}

// writeChrome writes the log as Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). Spans of one op nest by time on one
// track; args.op is the op id.
func (rc *recorder) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	first := true
	for _, s := range rc.spans {
		if s.end == 0 {
			continue
		}
		if !first {
			fmt.Fprint(w, ",")
		}
		first = false
		fmt.Fprintf(w, "\n{\"name\":%q,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d}}",
			s.name, float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.op)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
