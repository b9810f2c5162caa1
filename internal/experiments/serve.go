package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/queryengine"
	"repro/internal/record"
)

// serveOp is one replayable workload query: group by the given
// internal dimensions under the given bounds. The same stream is
// served at every machine size, so points are directly comparable.
type serveOp struct {
	group  []int
	bounds map[int][2]uint32
}

// serveWorkload builds the deterministic query stream for the serve
// table. The mix is biased toward the high-cardinality dimensions so
// source views are large and the scan actually exercises the
// machine (queries against tiny views measure only fixed superstep
// costs); half the stream repeats a hot pool so the result cache
// warms up.
func serveWorkload(seed int64, queries int) []serveOp {
	rng := rand.New(rand.NewSource(seed * 7919))
	cards := gen.PaperCards()
	randomOp := func() serveOp {
		top := rng.Perm(3) // the 256/128/64-cardinality dimensions
		switch rng.Intn(10) {
		case 0, 1, 2: // range aggregate over two large dimensions
			o := serveOp{bounds: map[int][2]uint32{}}
			for _, d := range top[:2] {
				a := uint32(rng.Intn(cards[d]))
				b := uint32(rng.Intn(cards[d]))
				if a > b {
					a, b = b, a
				}
				o.bounds[d] = [2]uint32{a, b}
			}
			return o
		case 3, 4, 5: // filtered group-by: superset view is 3 large dims
			d := 3 + rng.Intn(3)
			return serveOp{
				group:  []int{top[0], top[1]},
				bounds: map[int][2]uint32{d: {uint32(rng.Intn(cards[d])), uint32(rng.Intn(cards[d]))}},
			}
		default: // plain group-by over two large dimensions
			return serveOp{group: []int{top[0], top[1]}}
		}
	}
	// Fix the filtered case's bounds to be a valid range.
	normalize := func(o serveOp) serveOp {
		for d, b := range o.bounds {
			if b[0] > b[1] {
				o.bounds[d] = [2]uint32{b[1], b[0]}
			}
		}
		return o
	}
	pool := make([]serveOp, 1+queries/8)
	for i := range pool {
		pool[i] = normalize(randomOp())
	}
	out := make([]serveOp, queries)
	for i := range out {
		if rng.Intn(2) == 0 {
			out[i] = pool[rng.Intn(len(pool))]
		} else {
			out[i] = normalize(randomOp())
		}
	}
	return out
}

// ServePoint is one machine size's serving measurements over the
// shared workload.
type ServePoint struct {
	P           int
	Queries     int
	SimSeconds  float64 // simulated machine time executing (hits are free)
	Throughput  float64 // queries per simulated second
	Speedup     float64 // throughput relative to the first point
	P50ms       float64 // executed-query latency percentiles, sim ms
	P95ms       float64
	HitRatio    float64
	RowsScanned int64
}

// ServeResult is the distributed-serving table: query throughput and
// latency versus machine size, plus an indexed-versus-scan probe.
type ServeResult struct {
	N       int
	Queries int
	Points  []ServePoint
	// IdxRows / ScanRows are the rows charged by one equality query on
	// the root view's leading sort dimension with and without the
	// prefix index, at the largest machine size.
	IdxRows, ScanRows int64
}

// Serve builds the paper's d=8 cube at each machine size and replays
// the same query workload through the distributed query engine with a
// warm LRU result cache, measuring simulated throughput scaling.
func Serve(sc Scale) ServeResult {
	spec := paperSpec(sc.N1M, sc.Seed)
	workload := serveWorkload(sc.Seed, 160)
	res := ServeResult{N: spec.N, Queries: len(workload)}

	for _, p := range sc.Procs {
		g := gen.New(spec)
		m := cluster.New(p, costmodel.Default())
		for r := 0; r < p; r++ {
			m.Proc(r).Disk().Put("raw", g.Slice(r, p))
		}
		met, err := core.BuildCube(m, "raw", core.Config{D: spec.D})
		if err != nil {
			panic(fmt.Sprintf("experiments: serve build failed: %v", err))
		}
		e := queryengine.New(m, met.ViewOrders, met.ViewRows, record.OpSum)
		cache := queryengine.NewCache(256)

		pt := ServePoint{P: p, Queries: len(workload)}
		var lat []float64
		hits := 0
		for _, o := range workload {
			q, err := e.NewQuery(o.group, o.bounds)
			if err != nil {
				panic(fmt.Sprintf("experiments: serve plan failed: %v", err))
			}
			if _, ok := cache.Get(q.Key()); ok {
				hits++
				continue
			}
			_, qm, err := e.Execute(q)
			if err != nil {
				panic(fmt.Sprintf("experiments: serve query failed: %v", err))
			}
			cache.Put(q.Key(), struct{}{})
			pt.SimSeconds += qm.SimSeconds
			pt.RowsScanned += qm.RowsScanned
			lat = append(lat, qm.SimSeconds)
		}
		pt.HitRatio = float64(hits) / float64(len(workload))
		if pt.SimSeconds > 0 {
			pt.Throughput = float64(len(workload)) / pt.SimSeconds
		}
		sort.Float64s(lat)
		pt.P50ms = 1e3 * servePercentile(lat, 0.50)
		pt.P95ms = 1e3 * servePercentile(lat, 0.95)
		res.Points = append(res.Points, pt)

		if p == sc.Procs[len(sc.Procs)-1] {
			res.IdxRows, res.ScanRows = indexProbe(e)
		}
	}
	for i := range res.Points {
		res.Points[i].Speedup = res.Points[i].Throughput / res.Points[0].Throughput
	}
	return res
}

// indexProbe charges one equality query on the root view's leading
// sort dimension twice — once through the prefix index, once forced to
// full scans — and returns the rows each version touched. The query
// groups by the root's other seven dimensions, so the root is its only
// cover.
func indexProbe(e *queryengine.Engine) (idxRows, scanRows int64) {
	order, _ := e.Topology().Order(lattice.Full(8))
	q := queryengine.Query{
		Group:  order[1:],
		Bounds: []queryengine.Bound{{Dim: order[0], Lo: 7, Hi: 7}},
	}
	_, im, err := e.Execute(q)
	if err != nil {
		panic(fmt.Sprintf("experiments: index probe failed: %v", err))
	}
	q.NoIndex = true
	_, sm, err := e.Execute(q)
	if err != nil {
		panic(fmt.Sprintf("experiments: scan probe failed: %v", err))
	}
	return im.RowsScanned, sm.RowsScanned
}

func servePercentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// Print renders the serve table.
func (r ServeResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Distributed serving: %d queries against the d=8 cube, n=%d, warm LRU cache\n", r.Queries, r.N)
	fmt.Fprintf(w, "%4s %10s %12s %9s %9s %9s %7s %12s\n",
		"p", "sim_s", "queries/s", "speedup", "p50_ms", "p95_ms", "hit%", "rows_scan")
	for _, pt := range r.Points {
		fmt.Fprintf(w, "%4d %10.3f %12.1f %8.2fx %9.3f %9.3f %6.1f%% %12d\n",
			pt.P, pt.SimSeconds, pt.Throughput, pt.Speedup,
			pt.P50ms, pt.P95ms, 100*pt.HitRatio, pt.RowsScanned)
	}
	fmt.Fprintf(w, "prefix index probe (largest p): %d rows via index vs %d rows full scan\n",
		r.IdxRows, r.ScanRows)
}
