package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	rolap "repro"
)

// clients is the number of closed-loop query clients: one per core of
// the 2-core host the benchmark is sized for.
const clients = 2

// minCycles is the least number of timed cycles a run takes, however
// long they last: the fastest-cycle estimators need that many chances
// at a quiet host.
const minCycles = 8

// sampleFloor is the least time a timed sample covers: a call shorter
// than this is repeated and the sample divided by the count.
const sampleFloor = 400 * time.Millisecond

// config holds what the flags (or the smoke test) choose.
type config struct {
	seed    int64
	seconds float64       // the timed cycles go on until this much time has passed
	cycles  int           // > 0: exactly this many timed cycles instead
	floor   time.Duration // least time a timed sample covers
	scale   float64       // workload size; 1 is the benchmark's
}

// ops counts operations attempted and failed. Every call into the
// program is one operation; an error, a recovered panic or an answer
// that differs from the oracle fails it.
type ops struct {
	attempted, failed atomic.Int64
	mu                sync.Mutex
	errs              []string
}

func (o *ops) do(what string, fn func() error) (ok bool) {
	o.attempted.Add(1)
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return fn()
	}()
	if err != nil {
		o.fail(what, err)
	}
	return err == nil
}

func (o *ops) fail(what string, err error) {
	o.failed.Add(1)
	o.mu.Lock()
	if len(o.errs) < 10 {
		o.errs = append(o.errs, what+": "+err.Error())
	}
	o.mu.Unlock()
}

// sampled is one timed sample of a phase: seconds and allocation per call.
type sampled struct {
	sec   float64
	bytes float64
}

// counts are the deterministic numbers of one verify pass.
type counts struct {
	simMs, rowsScanned, bytesMoved float64 // means per query
	fallbacks                      int
}

// runner drives one workload's cycles.
type runner struct {
	in  *inputs
	cfg config
	ops *ops

	// tracer is set in a traced run; tr is the tracer of the current
	// cycle, nil in untraced cycles.
	tracer *tracer
	tr     *tracer
	root   int // the current cycle's span
	cycle  int

	// phases holds the per-cycle samples of the untraced timed cycles,
	// traced those of the traced ones; cur points at the one in use,
	// nil during the warm-up cycle.
	phases, traced, cur map[string][]sampled
	// lat is the fastest latency seen at each position of the replay
	// list, cycLat the current round's.
	lat, cycLat []float64

	// reps is how many calls one timed sample of a phase holds, fixed
	// after cycle 0 so that the sample covers the floor.
	reps map[string]int

	// Deterministic values, fixed by cycle 0 and compared in every
	// later cycle.
	buildSim      float64
	snapshotBytes int
	outputRows    int64
	batchSim      []float64

	// Verify passes of cycle 0: on the fresh build, after the serve
	// round, and after the advisor.
	before, warm, advised counts
	views                 int // materialized views after the build
	stats                 rolap.ServerStats
	advisor               rolap.AdvisorStats
	// cube is the last cycle's built cube, kept for the replica episode.
	cube *rolap.Cube
}

func newRunner(in *inputs, cfg config, o *ops) *runner {
	r := &runner{
		in: in, cfg: cfg, ops: o,
		phases: map[string][]sampled{}, traced: map[string][]sampled{},
		lat: make([]float64, len(in.list)), cycLat: make([]float64, len(in.list)),
		reps: map[string]int{"build": 1, "restore": 1, "serve": 1, "ingest": 1},
	}
	for i := range r.lat {
		r.lat[i] = math.Inf(1)
	}
	return r
}

// sample times reps consecutive calls of fn and records seconds and
// bytes allocated per call under the phase's name.
func (r *runner) sample(phase string, reps int, fn func()) sampled {
	sec, alloc := timeIt(func() {
		id := r.tr.begin(phase, r.root, 0, r.cycle)
		for i := 0; i < reps; i++ {
			fn()
		}
		r.tr.finish(id)
	})
	s := sampled{sec / float64(reps), alloc / float64(reps)}
	r.record(phase, s)
	return s
}

// timeIt runs fn once after a collection, so that it does not pay for
// its predecessor's garbage, and returns its seconds and the bytes it
// allocated.
func timeIt(fn func()) (sec, alloc float64) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	sec = time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return sec, float64(m1.TotalAlloc - m0.TotalAlloc)
}

func (r *runner) record(phase string, s sampled) {
	if r.cur != nil {
		r.cur[phase] = append(r.cur[phase], s)
	}
}

// setReps fixes a phase's calls per sample from cycle 0's time per call.
func (r *runner) setReps(phase string, perCall float64) {
	if r.cycle == 0 && perCall > 0 {
		r.reps[phase] = int(math.Ceil(r.cfg.floor.Seconds() / perCall))
	}
}

// repeats reports whether a simulated-clock value equals cycle 0's. The
// clock is a float64 sum and a cost is read as a difference of two
// readings, so the same cost read at another absolute time may differ
// in the last bits; anything beyond that is a real difference.
func repeats(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}

// same fails an operation when a value that must repeat differs from
// cycle 0's.
func (r *runner) same(what string, got, want float64) {
	r.ops.do(what, func() error {
		if !repeats(got, want) {
			return fmt.Errorf("cycle %d has %v, cycle 0 had %v", r.cycle, got, want)
		}
		return nil
	})
}

// runCycle runs every phase once. Cycle 0 warms up, fixes the
// deterministic values and checks every distinct query against the
// oracle; its timings are dropped.
func (r *runner) runCycle(c int, traced bool) error {
	w := r.in.w
	r.cycle = c
	r.tr, r.cur = nil, r.phases
	if traced {
		r.tr, r.cur = r.tracer, r.traced
	}
	if c == 0 {
		r.cur = nil
	}
	r.root = r.tr.begin("cycle", 0, 0, c)
	defer r.tr.finish(r.root)

	// csv: CSV bytes to a loaded fact table.
	var in *rolap.Input
	r.sample("csv", 1, func() {
		r.ops.do("LoadCSV", func() (err error) {
			in, err = rolap.LoadCSV(bytes.NewReader(r.in.csv), rolap.CSVOptions{})
			return err
		})
	})
	if in == nil {
		return fmt.Errorf("LoadCSV failed")
	}
	r.ops.do("dictionary", func() error { return r.checkDictionary(in) })

	// build
	var cube *rolap.Cube
	bs := r.sample("build", r.reps["build"], func() {
		r.ops.do("Build", func() (err error) {
			cube, err = rolap.Build(in, w.options())
			return err
		})
	})
	if cube == nil {
		return fmt.Errorf("Build failed")
	}
	r.setReps("build", bs.sec)
	if met := cube.Metrics(); c == 0 {
		r.buildSim, r.outputRows = met.SimSeconds, met.OutputRows
	} else {
		r.same("build SimSeconds", met.SimSeconds, r.buildSim)
	}

	// save
	var snap bytes.Buffer
	r.sample("save", 1, func() {
		r.ops.do("Save", func() error { return cube.Save(&snap) })
	})
	if c == 0 {
		r.snapshotBytes = snap.Len()
	} else {
		r.same("snapshot bytes", float64(snap.Len()), float64(r.snapshotBytes))
	}

	// restore: snapshot bytes to the first checked answer. The ingest
	// phase takes its cubes from here.
	var restored []*rolap.Cube
	var loadOnly time.Duration
	first := &r.in.first
	rs := r.sample("restore", r.reps["restore"], func() {
		r.ops.do("LoadCube", func() error {
			id := r.tr.begin("LoadCube", r.root, 0, c)
			t0 := time.Now()
			loaded, err := rolap.LoadCube(bytes.NewReader(snap.Bytes()))
			loadOnly += time.Since(t0)
			r.tr.finish(id)
			if err != nil {
				return err
			}
			if len(restored) < r.reps["ingest"] {
				restored = append(restored, loaded)
			}
			v, err := loaded.GroupBy(first.dims, first.filters)
			if err != nil {
				return err
			}
			return r.in.table.check(first, v, 0, &r.in.firstAnswer)
		})
	})
	if len(restored) == 0 {
		return fmt.Errorf("LoadCube failed")
	}
	r.record("load", sampled{sec: loadOnly.Seconds() / float64(r.reps["restore"])})
	r.setReps("restore", rs.sec)

	if c == 0 {
		r.before = r.verify(cube, 0)
	}

	// serve
	if err := r.round(cube); err != nil {
		return err
	}

	// advise: on a full cube the advisor finds no superset scans to
	// save and stops after one step. Cycle 0 verifies before and after,
	// both times with the prefix indexes the round left warm.
	if c == 0 && w.slices == 0 {
		r.warm = r.verify(cube, 0)
	}
	r.sample("advise", 1, func() { r.advise(cube) })
	if c == 0 && w.slices == 0 {
		r.advised = r.verify(cube, 0)
	}

	// ingest: every batch, on restored cubes, whose state is the same
	// in every cycle. (With slices the batches went to the served cube,
	// inside the round.)
	target := cube
	if w.slices == 0 {
		target = restored[0]
		k := 0
		is := r.sample("ingest", len(restored), func() {
			for b := range r.in.batches {
				r.applyBatch(restored[k], b, r.root)
			}
			k++
		})
		r.setReps("ingest", is.sec)
		if r.reps["ingest"] > r.reps["restore"] {
			r.reps["ingest"] = r.reps["restore"]
		}
	}
	if c == 0 {
		r.verify(target, len(r.in.batches))
	}
	return nil
}

// checkDictionary compares the loaded dictionaries with the documented
// order (descending frequency, then value): every code the benchmark
// uses afterwards depends on it.
func (r *runner) checkDictionary(in *rolap.Input) error {
	if in.Len() != r.in.w.rows {
		return fmt.Errorf("loaded %d rows, want %d", in.Len(), r.in.w.rows)
	}
	for j, want := range r.in.dict {
		got := in.DimensionValues(dimName(j))
		if len(got) != len(want) {
			return fmt.Errorf("dimension %d has %d values, want %d", j, len(got), len(want))
		}
		for c := range want {
			if got[c] != want[c] {
				return fmt.Errorf("dimension %d code %d is %q, want %q", j, c, got[c], want[c])
			}
		}
	}
	return nil
}

// applyBatch ingests batch b and compares its simulated cost with
// cycle 0's.
func (r *runner) applyBatch(cube *rolap.Cube, b, parent int) {
	bt := &r.in.batches[b]
	r.ops.do("Ingest", func() error {
		id := r.tr.begin("Ingest", parent, 0, r.cycle)
		defer r.tr.finish(id)
		met, err := cube.Ingest(bt.rows, bt.meas)
		if err != nil {
			return err
		}
		if _, err := cube.Flush(); err != nil {
			return err
		}
		if r.cycle == 0 {
			r.batchSim = append(r.batchSim, met.SimSeconds)
		} else if !repeats(met.SimSeconds, r.batchSim[b]) {
			return fmt.Errorf("batch %d SimSeconds is %v, cycle 0 had %v", b, met.SimSeconds, r.batchSim[b])
		}
		return nil
	})
}

// advise steps the advisor until it recommends nothing, four times at most.
func (r *runner) advise(cube *rolap.Cube) {
	var adv *rolap.Advisor
	if !r.ops.do("NewAdvisor", func() (err error) {
		adv, err = cube.NewAdvisor(rolap.AdvisorOptions{Seed: 1})
		return err
	}) {
		return
	}
	for step := 0; step < 4; step++ {
		var recs []rolap.Recommendation
		ok := r.ops.do("Advisor.Step", func() (err error) {
			id := r.tr.begin("Advisor.Step", r.root, 0, r.cycle)
			defer r.tr.finish(id)
			recs, err = adv.Step()
			return err
		})
		if !ok || len(recs) == 0 {
			break
		}
	}
	r.advisor = adv.Stats()
}

// exec sends one query to the server and times the call alone.
func exec(srv *rolap.Server, q *query) (v *rolap.View, val int64, qm rolap.QueryMetrics, lat time.Duration, err error) {
	ctx := context.Background()
	t0 := time.Now()
	switch q.kind {
	case kindGroupBy:
		v, qm, err = srv.GroupBy(ctx, q.dims, q.filters)
	case kindPoint:
		val, qm, err = srv.Aggregate(ctx, q.dims, q.lo)
	default:
		val, qm, err = srv.RangeAggregate(ctx, q.dims, q.lo, q.hi)
	}
	return v, val, qm, time.Since(t0), err
}

// round is the serve phase: a fresh server on the built cube and the
// replay list sent once by two closed-loop clients, client c taking
// every second position from c. With slices, a batch goes to the served
// cube before each slice, and the queries of a slice see exactly that
// many batches.
func (r *runner) round(cube *rolap.Cube) error {
	w := r.in.w
	var srv *rolap.Server
	if !r.ops.do("NewServer", func() (err error) {
		srv, err = cube.NewServer(rolap.ServerOptions{CacheSize: w.cache})
		return err
	}) {
		return fmt.Errorf("NewServer failed")
	}
	// Without slices the list is replayed as many times as the floor
	// asks for; the cache is off, so every pass does the same work.
	slices, passes, version := 1, r.reps["serve"], 0
	if w.slices > 0 {
		slices, passes = w.slices, 1
	}
	per := len(r.in.list) / slices
	for i := range r.cycLat {
		r.cycLat[i] = math.Inf(1)
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	id := r.tr.begin("serve", r.root, 0, r.cycle)
	var serving, ingesting time.Duration
	for s := 0; s < slices*passes; s++ {
		s := s % slices
		if w.slices > 0 {
			t0 := time.Now()
			r.applyBatch(cube, s, id)
			ingesting += time.Since(t0)
			version = s + 1
		}
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for pos := s*per + c; pos < (s+1)*per; pos += clients {
					r.ask(srv, pos, version, c+1, id)
				}
			}(c)
		}
		wg.Wait()
		serving += time.Since(t0)
	}
	r.tr.finish(id)
	runtime.ReadMemStats(&m1)

	r.record("serve", sampled{serving.Seconds() / float64(passes), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(passes)})
	if w.slices == 0 {
		r.setReps("serve", serving.Seconds()/float64(passes))
	} else {
		r.record("ingest", sampled{sec: ingesting.Seconds()})
	}
	if r.cur != nil {
		for i, l := range r.cycLat {
			if l < r.lat[i] {
				r.lat[i] = l
			}
		}
	}
	r.stats = srv.Stats()
	return nil
}

// ask sends the query at one list position and checks the answer in
// constant time: the group count of a group-by, the value of a scalar.
func (r *runner) ask(srv *rolap.Server, pos, version, lane, parent int) {
	qi := r.in.list[pos]
	q, a := &r.in.queries[qi], &r.in.answers[version][qi]
	r.ops.do("query", func() error {
		id := r.tr.begin("query", parent, lane, r.cycle)
		v, val, _, lat, err := exec(srv, q)
		r.tr.finish(id)
		r.cycLat[pos] = math.Min(r.cycLat[pos], lat.Seconds())
		if err != nil {
			return err
		}
		return a.checkQuick(q, v, val)
	})
}

// verify sends every distinct query once, one client, cache off, and
// compares each answer in full with the oracle's after `version`
// batches. It returns the simulated counts of the pass.
func (r *runner) verify(cube *rolap.Cube, version int) counts {
	var srv *rolap.Server
	if !r.ops.do("NewServer", func() (err error) {
		srv, err = cube.NewServer(rolap.ServerOptions{CacheSize: -1})
		return err
	}) {
		return counts{}
	}
	var n counts
	for qi := range r.in.queries {
		q, a := &r.in.queries[qi], &r.in.answers[version][qi]
		r.ops.do("verify", func() error {
			v, val, qm, _, err := exec(srv, q)
			if err != nil {
				return err
			}
			n.simMs += qm.SimSeconds * 1e3
			n.rowsScanned += float64(qm.RowsScanned)
			n.bytesMoved += float64(qm.BytesMoved)
			return r.in.table.check(q, v, val, a)
		})
	}
	for _, vs := range srv.Stats().Views {
		n.fallbacks += int(vs.Fallbacks)
	}
	k := float64(len(r.in.queries))
	n.simMs, n.rowsScanned, n.bytesMoved = n.simMs/k, n.rowsScanned/k, n.bytesMoved/k
	return n
}

// run takes the warm-up cycle and then the timed ones. A traced run
// takes four, alternately untraced and traced, so that the two kinds
// meet the same host.
func (r *runner) run(traced bool) error {
	if err := r.runCycle(0, false); err != nil {
		return err
	}
	start := time.Now()
	more := func(c int) bool {
		switch {
		case traced:
			return c <= 4
		case r.cfg.cycles > 0:
			return c <= r.cfg.cycles
		}
		return c <= minCycles || time.Since(start).Seconds() < r.cfg.seconds
	}
	for c := 1; more(c); c++ {
		if err := r.runCycle(c, traced && c%2 == 0); err != nil {
			return err
		}
	}
	return nil
}

// Estimators. Interference on a shared host only ever adds time, so a
// phase's wall-clock value is its fastest cycle; the median and the
// quartiles are reported beside it as diagnostics.

func secs(ss []sampled) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.sec
	}
	return out
}

func fastest(ss []sampled) float64 {
	m := math.Inf(1)
	for _, s := range ss {
		m = math.Min(m, s.sec)
	}
	return m
}

// quantile is Python's statistics.quantiles (exclusive method) at q.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n == 1 {
		return s[0]
	}
	pos := q*float64(n+1) - 1
	lo := int(math.Floor(pos))
	if lo < 0 {
		lo = 0
	}
	if lo > n-2 {
		lo = n - 2
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// percentile is the nearest-rank percentile of a latency list.
func percentile(xs []float64, p float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
