package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"runtime"
	"sort"
	"time"

	"github.com/harpnet/harp/internal/cosim"
	"github.com/harpnet/harp/internal/obs"
	"github.com/harpnet/harp/internal/schedule"
	"github.com/harpnet/harp/internal/sim"
	"github.com/harpnet/harp/internal/stats"
)

// workload is one set of inputs the benchmark runs. A rep builds one
// system instance (or, for the per-op-instance workloads, one batch of
// inputs) from the run seed and the rep index; inside it r.setup times the
// input generation and r.op times each operation.
type workload interface {
	name() string
	// unit names the work unit work_per_s counts.
	unit() string
	// minReps is how many reps always run: together they give at least 40
	// op samples, and only they feed the vt_* metrics and the digest, so
	// both repeat exactly however many extra reps the time budget fits.
	minReps() int
	rep(r *run, i int)
}

// config is what one run is asked to do.
type config struct {
	seed    int64
	seconds float64
	traced  bool
}

// samples holds the timing and allocation samples of one pass. A traced
// run keeps two: the spanned composition and its unspanned twin.
type samples struct {
	opMS    []float64 // wall of each successful op
	rate    []float64 // work units per host second of each successful op
	deployS []float64 // wall of each successful deploy op
	allocB  uint64    // TotalAlloc delta summed over successful ops
	allocN  uint64    // Mallocs delta summed over successful ops
}

// vtAcc accumulates the simulated (virtual-time) results of the pinned
// reps. They depend only on the seed, never on the host.
type vtAcc struct {
	commitSlots []float64
	adjustMsgs  []float64
	released    int
	delivered   int
	latency     map[int]int // packet latency in slots -> count
	frameSlots  []float64
}

// run is the state of one (workload, seed) run.
type run struct {
	cfg config
	w   workload

	pinned bool // the current rep feeds vt and the digest
	cur    *samples
	meas   samples // the measured (unspanned) pass
	trc    samples // the spanned pass of a traced run

	setupS   []float64 // per rep: input generation and instance building outside the timed ops
	repSetup time.Duration
	liveMB   []float64 // per rep
	liveRep  int       // reps+1 of the last live-heap sample
	reps     int

	attempted int
	failed    int
	notes     []string // first few failure messages
	info      []string // remarks for the reader of a traced run

	vt  vtAcc
	dig hash.Hash64

	// Wall of every cosim.New and cosim Run the measured pass made.
	cosimNewMS []float64
	cosimRunNS time.Duration
	cosimSlots int

	// Traced runs only.
	rec        *recorder
	instances  int                // system instances the spanned pass built
	layer      map[string]float64 // counters read from the layers' public API, probe results
	probes     probeInputs
	snapshotMS []float64
	fidelity   struct{ checked, bad int }
}

func newRun(w workload, cfg config) *run {
	r := &run{cfg: cfg, w: w, dig: fnv.New64a(), layer: make(map[string]float64)}
	r.vt.latency = make(map[int]int)
	r.cur = &r.meas
	if cfg.traced {
		r.rec = newRecorder()
	}
	return r
}

// execute runs reps until the time budget is spent. The budget covers the
// whole measuring phase — per-rep set-up included — so a run ends about one
// rep after cfg.seconds whatever the host's speed.
func (r *run) execute() {
	began := time.Now()
	budget := time.Duration(r.cfg.seconds * float64(time.Second))
	for i := 0; i < r.w.minReps() || (time.Since(began) < budget && !r.rec.full()); i++ {
		r.pinned = i < r.w.minReps()
		r.w.rep(r, i)
		r.reps++
		if r.repSetup > 0 {
			r.setupS = append(r.setupS, r.repSetup.Seconds())
			r.repSetup = 0
		}
	}
	if r.cfg.traced {
		r.runProbes()
	}
}

// repSeed derives the seed of rep i (and, with sub, of op sub inside it).
func (r *run) repSeed(i, sub int) int64 {
	return r.cfg.seed*1_000_003 + int64(i)*1_009 + int64(sub)
}

// protect runs fn, turning a panic into an error: a failed op must be
// counted, not abort the run.
func protect(fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn()
}

// fail counts one failed op.
func (r *run) fail(what string, err error) {
	r.failed++
	if len(r.notes) < 8 {
		r.notes = append(r.notes, fmt.Sprintf("%s: %v", what, err))
	}
}

// check counts a failed output check (made outside every timed span).
func (r *run) check(what string, err error) bool {
	if err != nil {
		r.fail(what, err)
	}
	return err == nil
}

// setup times one input-generation step. A failure makes the rep unusable:
// it counts as one failed op and the caller skips the rep.
func (r *run) setup(fn func() error) bool {
	if r.rec != nil && !r.rec.on {
		r.rec.on = true // input generation is spanned whichever pass it serves
		defer func() { r.rec.on = false }()
	}
	r.rec.nextOp()
	root := r.rec.begin(spanSetup)
	t0 := time.Now()
	err := protect(fn)
	wall := time.Since(t0)
	r.rec.end(root)
	if err != nil {
		r.attempted++
		r.fail("setup", err)
		return false
	}
	if r.measuring() {
		r.repSetup += wall
	}
	return true
}

// deploy times the op that builds a system instance (ctrl_scale's
// cosim.New). Its samples are kept apart from the ordinary ops', and its
// wall also counts as set-up: work a later change moves out of the ops into
// the deployment must show in setup_s.
func (r *run) deploy(fn func() error) bool {
	r.attempted++
	r.rec.nextOp()
	root := r.rec.begin(spanDeploy)
	t0 := time.Now()
	err := protect(fn)
	wall := time.Since(t0)
	r.rec.end(root)
	if err != nil {
		r.fail("deploy", err)
		return false
	}
	r.cur.deployS = append(r.cur.deployS, wall.Seconds())
	if r.measuring() {
		r.repSetup += wall
	}
	return true
}

// op times one operation; fn returns the work units it completed. The
// allocation counters are read outside the timed span. A failed op
// contributes no sample.
func (r *run) op(fn func() (work float64, err error)) bool {
	r.attempted++
	r.rec.nextOp()
	var work float64
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	root := r.rec.begin(spanOp)
	t0 := time.Now()
	err := protect(func() (e error) { work, e = fn(); return })
	wall := time.Since(t0)
	r.rec.end(root)
	runtime.ReadMemStats(&m1)
	if err != nil {
		r.fail("op", err)
		return false
	}
	s := r.cur
	s.opMS = append(s.opMS, float64(wall)/float64(time.Millisecond))
	s.rate = append(s.rate, work/wall.Seconds())
	s.allocB += m1.TotalAlloc - m0.TotalAlloc
	s.allocN += m1.Mallocs - m0.Mallocs
	return true
}

// spanned runs fn as the spanned pass of a traced run and returns what it
// left behind; nil in an untraced run, or once the span log is full.
func (r *run) spanned(fn func() outcome) *outcome {
	if !r.cfg.traced || r.rec.full() {
		return nil
	}
	r.cur = &r.trc
	r.rec.on = true
	out := fn()
	r.rec.on = false
	r.cur = &r.meas
	return &out
}

// liveHeap samples the heap in use after a forced collection; call it with
// the instance fully built and still reachable. It keeps one sample a rep.
func (r *run) liveHeap() {
	if !r.measuring() || r.liveRep == r.reps+1 {
		return
	}
	r.liveRep = r.reps + 1
	r.liveMB = append(r.liveMB, float64(heapInUse())/(1<<20))
}

func heapInUse() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// newCoSim is cosim.New, with its wall kept for cosim.new_ms_p50.
func (r *run) newCoSim(cfg cosim.Config) (*cosim.CoSim, error) {
	t0 := time.Now()
	cs, err := cosim.New(cfg)
	if err == nil && r.measuring() {
		r.cosimNewMS = append(r.cosimNewMS, float64(time.Since(t0))/float64(time.Millisecond))
	}
	return cs, err
}

// runCoSim advances cs by n slots, with the wall kept for
// cosim.run_ns_per_slot.
func (r *run) runCoSim(cs *cosim.CoSim, n int) error {
	t0 := time.Now()
	err := cs.Run(n)
	r.cosimRunNS += time.Since(t0)
	r.cosimSlots += n
	return err
}

// instance counts one system instance built by the spanned pass; the
// per-instance layer metrics divide by it.
func (r *run) instance() {
	if !r.measuring() {
		r.instances++
	}
}

// tallyMAC adds a finished simulator's slot and record counts to the
// per-layer record (the spanned pass's apart: its spans divide by them).
func (r *run) tallyMAC(mac *sim.Simulator, records int) {
	if !r.cfg.traced {
		return
	}
	if !r.measuring() {
		r.layer["sim.span_slots"] += float64(mac.Now())
		r.layer["sim.span_executed"] += float64(mac.ExecutedSlots())
		return
	}
	r.layer["sim.slots"] += float64(mac.Now())
	r.layer["sim.executed"] += float64(mac.ExecutedSlots())
	r.layer["sim.records"] += float64(records)
}

// snapshotProbe times one Registry.Snapshot of a finished instance.
func (r *run) snapshotProbe(reg *obs.Registry) {
	if !r.cfg.traced {
		return
	}
	t0 := time.Now()
	reg.Snapshot()
	r.snapshotMS = append(r.snapshotMS, float64(time.Since(t0))/float64(time.Millisecond))
}

// fidelityCheck compares what the spanned pass and its unspanned twin
// left behind: a traced run is only worth reading if the two did the same
// simulated work.
func (r *run) fidelityCheck(spanned *outcome, twin outcome) {
	if spanned == nil {
		return
	}
	r.fidelity.checked++
	same := spanned.ok && twin.ok && len(spanned.sig) == len(twin.sig) &&
		(spanned.sched == nil) == (twin.sched == nil)
	for i := 0; same && i < len(twin.sig); i++ {
		same = spanned.sig[i] == twin.sig[i]
	}
	if same && twin.sched != nil {
		same = sameSchedule(spanned.sched, twin.sched)
	}
	if !same {
		r.fidelity.bad++
		if len(r.notes) < 8 {
			r.notes = append(r.notes, fmt.Sprintf("fidelity: spanned pass %v, twin %v", spanned.sig, twin.sig))
		}
	}
}

// hash folds values into the run digest (pinned reps, measured pass only).
func (r *run) hash(vs ...int) {
	if !r.vtOn() {
		return
	}
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(int64(v)))
		r.dig.Write(b[:])
	}
}

func (r *run) hashSchedule(s *schedule.Schedule) {
	if !r.vtOn() {
		return
	}
	for _, tx := range s.Transmissions() {
		r.hash(int(tx.Link.Child), int(tx.Link.Direction), tx.Cell.Slot, tx.Cell.Channel)
	}
}

// measuring reports whether the measured (unspanned) pass is running; the
// spanned pass of a traced run only feeds its own op samples and the span log.
func (r *run) measuring() bool { return r.cur == &r.meas }

// vtOn reports whether simulated results of the current rep are recorded.
func (r *run) vtOn() bool { return r.pinned && r.measuring() }

// sameSchedule reports whether two schedules hold the same cells.
func sameSchedule(a, b *schedule.Schedule) bool {
	ta, tb := a.Transmissions(), b.Transmissions()
	if len(ta) != len(tb) {
		return false
	}
	for i := range ta {
		if ta[i] != tb[i] {
			return false
		}
	}
	return true
}

// quantile returns the q-quantile of xs (0 for an empty sample), sorting xs
// in place.
func quantile(xs []float64, q float64) float64 {
	sort.Float64s(xs)
	return stats.Percentile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// tail returns the highest percentile that still has at least ten samples
// beyond it, and the value there; with fewer than 20 samples it falls back
// to the median.
func tail(xs []float64) (pct, value float64) {
	n := len(xs)
	if n < 20 {
		return 50, median(xs)
	}
	sort.Float64s(xs)
	return 100 * float64(n-10) / float64(n), xs[n-11]
}

// histMedian returns the median of a value->count histogram.
func histMedian(h map[int]int) float64 {
	keys := make([]int, 0, len(h))
	total := 0
	for k, c := range h {
		keys = append(keys, k)
		total += c
	}
	if total == 0 {
		return 0
	}
	sort.Ints(keys)
	seen := 0
	for _, k := range keys {
		seen += h[k]
		if 2*seen >= total {
			return float64(k)
		}
	}
	return float64(keys[len(keys)-1])
}
