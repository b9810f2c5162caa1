package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"time"

	rolap "repro"
	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/estimate"
	"repro/internal/extsort"
	"repro/internal/ingest"
	"repro/internal/lattice"
	"repro/internal/mergepart"
	"repro/internal/pipesort"
	"repro/internal/queryengine"
	"repro/internal/record"
	"repro/internal/samplesort"
	"repro/internal/simdisk"
)

// perLayer lists the metrics of single layers, reported by a traced
// run. They are diagnostics with no bound: README.md says which
// end-to-end metric each should move, on which workload. A workload
// that does not run a layer (the advisor on a full cube) reports 0.
var perLayer = []metricDef{
	{name: "csv.load_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "csv.alloc_bytes_per_row", unit: "B/row", better: "lower"},

	{name: "record.sort_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "record.sort_alloc_bytes_per_row", unit: "B/row", better: "lower"},
	{name: "record.aggregate_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "record.merge_rows_per_s", unit: "rows/s", better: "higher"},

	{name: "extsort.sort_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "extsort.sim_s", unit: "sim_s", better: "lower"},
	{name: "extsort.alloc_bytes_per_row", unit: "B/row", better: "lower"},

	{name: "samplesort.sort_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "samplesort.sim_s", unit: "sim_s", better: "lower"},
	{name: "samplesort.shifts", unit: "count", better: "lower"},
	{name: "samplesort.bytes_moved", unit: "B", better: "lower"},

	{name: "pipesort.plan_ms", unit: "ms", better: "lower"},
	{name: "pipesort.exec_rows_out_per_s", unit: "rows/s", better: "higher"},
	{name: "pipesort.exec_alloc_bytes_per_row_out", unit: "B/row", better: "lower"},
	{name: "pipesort.exec_sim_s", unit: "sim_s", better: "lower"},

	{name: "mergepart.merge_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "mergepart.sim_s", unit: "sim_s", better: "lower"},
	{name: "mergepart.bytes_moved", unit: "B", better: "lower"},
	{name: "mergepart.case1", unit: "count", better: "higher"},
	{name: "mergepart.case2", unit: "count", better: "lower"},
	{name: "mergepart.case3", unit: "count", better: "lower"},

	{name: "core.build_wall_s", unit: "s", better: "lower"},
	{name: "core.phase_sim_s.partition", unit: "sim_s", better: "lower"},
	{name: "core.phase_sim_s.plan", unit: "sim_s", better: "lower"},
	{name: "core.phase_sim_s.build", unit: "sim_s", better: "lower"},
	{name: "core.phase_sim_s.merge", unit: "sim_s", better: "lower"},
	{name: "core.bytes_moved", unit: "B", better: "lower"},
	{name: "core.comm_sim_s", unit: "sim_s", better: "lower"},
	{name: "cluster.rank_sim_imbalance", unit: "ratio", better: "lower"},

	{name: "colstore.encode_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "colstore.decode_rows_per_s", unit: "rows/s", better: "higher"},
	{name: "colstore.bytes_per_row", unit: "B/row", better: "lower"},

	{name: "persist.save_s", unit: "s", better: "lower"},
	{name: "persist.load_s", unit: "s", better: "lower"},
	{name: "persist.snapshot_bytes", unit: "B", better: "lower"},

	{name: "queryengine.execute_p50_ms", unit: "ms", better: "lower"},
	{name: "queryengine.execute_p99_ms", unit: "ms", better: "lower"},
	{name: "queryengine.rows_scanned_per_q", unit: "rows", better: "lower"},
	{name: "queryengine.bytes_moved_per_q", unit: "B", better: "lower"},
	{name: "queryengine.sim_ms_per_q", unit: "sim_ms", better: "lower"},
	{name: "queryengine.fallback_ratio", unit: "ratio", better: "lower"},
	{name: "queryengine.qps_1client", unit: "1/s", better: "higher"},
	{name: "queryengine.qps_2client", unit: "1/s", better: "higher"},

	{name: "server.overhead_p50_us", unit: "us", better: "lower"},
	{name: "server.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "server.coalesced", unit: "count", better: "higher"},
	{name: "server.rejected", unit: "count", better: "lower"},
	{name: "server.stale_serves", unit: "count", better: "lower"},

	{name: "replica.overhead_p50_us", unit: "us", better: "lower"},
	{name: "replica.snapshot_ship_bytes", unit: "B", better: "lower"},
	{name: "replica.delta_ship_bytes", unit: "B", better: "lower"},
	{name: "replica.catchup_s", unit: "s", better: "lower"},
	{name: "replica.max_lag_batches", unit: "count", better: "lower"},

	{name: "ingest.batch_wall_s", unit: "s", better: "lower"},
	{name: "ingest.delta_build_sim_s", unit: "sim_s", better: "lower"},
	{name: "ingest.delta_merge_sim_s", unit: "sim_s", better: "lower"},
	{name: "ingest.delta_merge_bytes", unit: "B", better: "lower"},
	{name: "ingest.alloc_bytes_per_row", unit: "B/row", better: "lower"},
	{name: "ingest.rows_per_s_per_view", unit: "rows/s", better: "higher"},

	{name: "advisor.step_wall_s", unit: "s", better: "lower"},
	{name: "advisor.materialize_sim_s", unit: "sim_s", better: "lower"},
	{name: "advisor.views_materialized", unit: "count", better: "higher"},
	{name: "advisor.post_query_sim_ratio", unit: "ratio", better: "lower"},

	{name: "sketch.build_overhead_ratio", unit: "ratio", better: "lower"},
	{name: "sketch.bytes_per_group", unit: "B", better: "lower"},

	{name: "trace_overhead_pct", unit: "%", better: "lower"},
}

// layerMetrics computes the per-layer metrics of a traced run: the
// ones read off the traced cycles' spans and counters, then the replay
// of each internal layer on the same workload's data.
func (r *runner) layerMetrics() map[string]metric {
	w := r.in.w
	p, t := r.phases, r.traced
	n := float64(w.rows)
	m := map[string]float64{}

	m["csv.load_rows_per_s"] = n / fastest(t["csv"])
	m["csv.alloc_bytes_per_row"] = t["csv"][0].bytes / n
	m["persist.save_s"] = fastest(t["save"])
	m["persist.load_s"] = fastest(t["load"])
	m["persist.snapshot_bytes"] = float64(r.snapshotBytes)

	if q := r.stats.Queries; q > 0 {
		m["server.cache_hit_ratio"] = float64(r.stats.CacheHits) / float64(q)
	}
	m["server.coalesced"] = float64(r.stats.Coalesced)
	m["server.rejected"] = float64(r.stats.Rejected)
	m["server.stale_serves"] = float64(r.stats.StaleServes + r.stats.StaleWidened)
	m["queryengine.rows_scanned_per_q"] = r.before.rowsScanned
	m["queryengine.bytes_moved_per_q"] = r.before.bytesMoved
	m["queryengine.sim_ms_per_q"] = r.before.simMs
	m["queryengine.fallback_ratio"] = float64(r.before.fallbacks) / float64(len(r.in.queries))

	if steps := r.advisor.Steps; steps > 0 {
		m["advisor.step_wall_s"] = fastest(t["advise"]) / float64(steps)
	}
	m["advisor.materialize_sim_s"] = r.advisor.BuildSimSeconds
	m["advisor.views_materialized"] = float64(r.advisor.Materialized)
	if w.slices == 0 {
		m["advisor.post_query_sim_ratio"] = r.advised.simMs / r.warm.simMs
	}

	untraced := fastest(p["build"]) + fastest(p["serve"])
	m["trace_overhead_pct"] = ((fastest(t["build"])+fastest(t["serve"]))/untraced - 1) * 100

	it := r.internalForm()
	r.replayBuild(m, it)
	r.replayServe(m, it, fastest(p["build"]))

	out := map[string]metric{}
	for _, d := range perLayer {
		out[d.name] = metric{m[d.name], d.unit}
	}
	return out
}

// bestOf times three rounds of [prepare untimed, run timed] and keeps
// the fastest.
func bestOf(prepare, run func()) (sec, alloc float64) {
	sec = math.Inf(1)
	for i := 0; i < 3; i++ {
		if prepare != nil {
			prepare()
		}
		if s, a := timeIt(run); s < sec {
			sec, alloc = s, a
		}
	}
	return sec, alloc
}

// internal is the workload's data as the layers below the public API
// see it: dimensions reordered by decreasing cardinality, as
// rolap.Schema does, and views as lattice ids.
type internal struct {
	d     int
	inv   []int // schema dimension -> internal dimension
	cards []int
	raw   *record.Table
	sel   []lattice.ViewID // nil: full cube
	cfg   core.Config
}

func (r *runner) internalForm() *internal {
	t := &r.in.table
	d := len(t.cols)
	perm := allDims(d)
	sort.SliceStable(perm, func(a, b int) bool { return t.cards[perm[a]] > t.cards[perm[b]] })
	it := &internal{d: d, inv: make([]int, d), cards: make([]int, d)}
	for i, u := range perm {
		it.inv[u], it.cards[i] = i, t.cards[u]
	}
	n := r.in.w.rows
	it.raw = record.New(d, n)
	row := make([]uint32, d)
	for k := 0; k < n; k++ {
		for i, u := range perm {
			row[i] = t.cols[u][k]
		}
		it.raw.Append(row, t.meas[k])
	}
	for _, v := range r.in.w.views {
		id := lattice.Empty
		for _, u := range v {
			id = id.Add(it.inv[u])
		}
		it.sel = append(it.sel, id)
	}
	it.cfg = core.Config{D: d, Selected: it.sel, Agg: record.OpSum, Cards: it.cards}
	if r.in.w.fm {
		it.cfg.Estimator = core.FMEstimator
	}
	return it
}

// slices cuts the raw rows into p even shares, as rolap.Build
// distributes them.
func (it *internal) slices(p int) []*record.Table {
	n := it.raw.Len()
	out := make([]*record.Table, p)
	for rank := range out {
		out[rank] = it.raw.Sub(rank*n/p, (rank+1)*n/p)
	}
	return out
}

// replayBuild calls the build-side layers directly, in the order
// Procedure 1 uses them, each on its own machine or disk as rolap.Build
// would set them up.
func (r *runner) replayBuild(m map[string]float64, it *internal) {
	w := r.in.w
	d, procs := it.d, w.procs
	n := float64(it.raw.Len())
	params := costmodel.Default()
	kp := record.PlanKeyFromCards(it.cards)
	sum := record.Agg{Op: record.OpSum}

	// record: sort, aggregate and merge kernels on the fact table.
	var t *record.Table
	sec, alloc := bestOf(func() { t = it.raw.Clone() }, func() { t.SortWithPlan(kp, true) })
	m["record.sort_rows_per_s"], m["record.sort_alloc_bytes_per_row"] = n/sec, alloc/n
	sec, _ = bestOf(nil, func() { record.AggregateSortedOp(t, d, record.OpSum) })
	m["record.aggregate_rows_per_s"] = n / sec
	parts := it.slices(procs)
	for i := range parts {
		parts[i] = parts[i].Clone()
		parts[i].SortWithPlan(kp, true)
	}
	sec, _ = bestOf(nil, func() { record.MergeSortedAggregateOp(parts, record.OpSum) })
	m["record.merge_rows_per_s"] = n / sec

	// extsort: the external sort of the whole table on one disk.
	var clk *costmodel.Clock
	var disk *simdisk.Disk
	var before float64
	sec, alloc = bestOf(func() {
		clk = costmodel.NewClock(params)
		disk = simdisk.New(clk)
		disk.Put("f", it.raw.Clone())
		before = clk.Seconds()
	}, func() { extsort.SortPlan(disk, "f", kp) })
	m["extsort.sort_rows_per_s"], m["extsort.alloc_bytes_per_row"] = n/sec, alloc/n
	m["extsort.sim_s"] = clk.Seconds() - before

	// samplesort: the global sort of every dimension's root, from p
	// locally sorted and aggregated shares.
	mach := cluster.New(procs, params)
	sel := it.sel
	if sel == nil {
		sel = lattice.AllViews(d)
	}
	var ssSec, ssRows float64
	simBefore, bytesBefore := mach.SimSeconds(), mach.Stats().BytesMoved
	var ssSim float64
	for i := 0; i < d; i++ {
		if len(lattice.PartitionSubset(i, d, sel)) == 0 {
			continue
		}
		root := lattice.Root(i, d)
		file := core.ViewFile(root)
		for rank, share := range it.slices(procs) {
			local := share.Project([]int(lattice.Canonical(root)))
			local.Sort()
			mach.Proc(rank).Disk().Put(file, record.AggregateSortedOp(local, local.D, record.OpSum))
			ssRows += float64(mach.Proc(rank).Disk().Len(file))
		}
		simBefore = mach.SimSeconds()
		s, _ := timeIt(func() {
			r.ops.do("samplesort.Sort", func() error {
				return mach.Run(func(p *cluster.Proc) {
					if res := samplesort.Sort(p, file, 0.01); res.Shifted && p.Rank() == 0 {
						m["samplesort.shifts"]++
					}
				})
			})
		})
		ssSec += s
		ssSim += mach.SimSeconds() - simBefore
		if i > 0 {
			for rank := 0; rank < procs; rank++ {
				mach.Proc(rank).Disk().Remove(file)
			}
		}
	}
	m["samplesort.sort_rows_per_s"] = ssRows / ssSec
	m["samplesort.sim_s"] = ssSim
	m["samplesort.bytes_moved"] = float64(mach.Stats().BytesMoved - bytesBefore)

	// pipesort: plan dimension 0's partition from rank 0's share of the
	// sorted root and execute it there; the other ranks follow untimed
	// so that mergepart below has every local copy.
	root := lattice.Root(0, d)
	rootOrder := lattice.Canonical(root)
	rootFile := core.ViewFile(root)
	for rank := 0; rank < procs; rank++ {
		disk := mach.Proc(rank).Disk()
		disk.Put(rootFile, record.AggregateSortedOp(disk.MustTake(rootFile), len(rootOrder), record.OpSum))
	}
	share := mach.Proc(0).Disk().MustGet(rootFile)
	sizer := estimate.NewCardenas(int64(share.Len()), estimate.MeasureCardinalities(share, rootOrder))
	var tree *lattice.Tree
	sec, _ = bestOf(nil, func() { tree = pipesort.PlanPartition(0, d, sizer) })
	m["pipesort.plan_ms"] = sec * 1e3
	opts := pipesort.Options{SampleCap: 100 * procs, Op: record.OpSum}
	var st pipesort.Stats
	clk = mach.Proc(0).Clock()
	before = clk.Seconds()
	sec, alloc = timeIt(func() { st = pipesort.ExecuteOpts(mach.Proc(0).Disk(), tree, core.ViewFile, opts) })
	out := float64(st.RowsEmitted)
	m["pipesort.exec_rows_out_per_s"], m["pipesort.exec_alloc_bytes_per_row_out"] = out/sec, alloc/out
	m["pipesort.exec_sim_s"] = clk.Seconds() - before
	for rank := 1; rank < procs; rank++ {
		pipesort.ExecuteOpts(mach.Proc(rank).Disk(), tree, core.ViewFile, opts)
	}

	// mergepart: merge the p local copies of every view of the partition.
	views := tree.Views()
	merged := make([]int, procs)
	simBefore, bytesBefore = mach.SimSeconds(), mach.Stats().BytesMoved
	sec, _ = timeIt(func() {
		r.ops.do("mergepart.MergeViewAgg", func() error {
			return mach.Run(func(p *cluster.Proc) {
				for _, v := range views {
					order := tree.Node(v).Order
					res := mergepart.MergeViewAgg(p, core.ViewFile(v), v, order, order, rootOrder, 0.03, sum)
					merged[p.Rank()] += res.Rows
					if p.Rank() == 0 {
						m[fmt.Sprintf("mergepart.case%d", res.Case)]++
					}
				}
			})
		})
	})
	var rows float64
	for _, k := range merged {
		rows += float64(k)
	}
	m["mergepart.merge_rows_per_s"] = rows / sec
	m["mergepart.sim_s"] = mach.SimSeconds() - simBefore
	m["mergepart.bytes_moved"] = float64(mach.Stats().BytesMoved - bytesBefore)
}

// replayServe builds the cube with core.BuildCube on the benchmark's
// own machine and calls the storage, query and ingest layers on it,
// then the replica tier and a sketch build through the public API.
func (r *runner) replayServe(m map[string]float64, it *internal, buildSec float64) {
	w := r.in.w
	d, procs := it.d, w.procs
	mach := cluster.New(procs, costmodel.Default())
	for rank, share := range it.slices(procs) {
		mach.Proc(rank).Disk().Put("raw", share)
	}
	var met core.Metrics
	sec, _ := timeIt(func() {
		r.ops.do("core.BuildCube", func() (err error) {
			met, err = core.BuildCube(mach, "raw", it.cfg)
			return err
		})
	})
	if met.ViewOrders == nil {
		return
	}
	m["core.build_wall_s"] = sec
	for _, ph := range []string{"partition", "plan", "build", "merge"} {
		m["core.phase_sim_s."+ph] = met.PhaseSeconds[ph]
	}
	m["core.bytes_moved"] = float64(met.BytesMoved)
	m["core.comm_sim_s"] = met.CommSeconds
	// Barriers level the ranks' clocks, so imbalance is read from the
	// local work each rank was charged: CPU plus disk seconds.
	var most, total float64
	for rank := 0; rank < procs; rank++ {
		c := mach.Proc(rank).Clock()
		local := c.CPUSeconds() + c.DiskSeconds()
		most, total = math.Max(most, local), total+local
	}
	m["cluster.rank_sim_imbalance"] = most / (total / float64(procs))

	// colstore: rank 0's slice of the largest view.
	var largest lattice.ViewID
	for v, rows := range met.ViewRows {
		if rows > met.ViewRows[largest] || (rows == met.ViewRows[largest] && v < largest) {
			largest = v
		}
	}
	if s, ok := mach.Proc(0).Disk().GetSlice(core.ViewFile(largest)); ok && s.Len() > 0 {
		rows := float64(s.Len())
		t := s.Decode()
		sec, _ = bestOf(nil, func() { colstore.Encode(t) })
		m["colstore.encode_rows_per_s"] = rows / sec
		sec, _ = bestOf(nil, func() { s.DecodeRange(0, s.Len()) })
		m["colstore.decode_rows_per_s"] = rows / sec
		m["colstore.bytes_per_row"] = float64(s.Bytes()) / rows
	}

	// queryengine: every distinct query planned and executed on the
	// engine directly, one client then two.
	eng := queryengine.New(mach, met.ViewOrders, met.ViewRows, record.OpSum)
	plans := make([]queryengine.Query, len(r.in.queries))
	for i := range r.in.queries {
		q := &r.in.queries[i]
		group := make([]int, len(q.group))
		for k, u := range q.group {
			group[k] = it.inv[u]
		}
		bounds := map[int][2]uint32{}
		for _, b := range q.bounds {
			bounds[it.inv[b.dim]] = [2]uint32{b.lo, b.hi}
		}
		r.ops.do("Engine.NewQuery", func() (err error) {
			plans[i], err = eng.NewQuery(group, bounds)
			return err
		})
	}
	lat := make([]float64, len(plans))
	replay := func(workers int) float64 {
		t0 := time.Now()
		var wg sync.WaitGroup
		for c := 0; c < workers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < len(plans); i += workers {
					r.ops.do("Engine.Execute", func() error {
						t0 := time.Now()
						_, _, err := eng.Execute(plans[i])
						lat[i] = time.Since(t0).Seconds()
						return err
					})
				}
			}(c)
		}
		wg.Wait()
		return time.Since(t0).Seconds()
	}
	replay(1) // builds the prefix indexes, as the warm-up cycle does
	runtime.GC()
	m["queryengine.qps_1client"] = float64(len(plans)) / replay(1)
	m["queryengine.execute_p50_ms"] = percentile(lat, 0.50) * 1e3
	m["queryengine.execute_p99_ms"] = percentile(lat, 0.99) * 1e3
	engineP50 := percentile(lat, 0.50)
	runtime.GC()
	m["queryengine.qps_2client"] = float64(len(plans)) / replay(clients)

	// ingest: one batch through the layer, without the cube's bookkeeping.
	bt := &r.in.batches[0]
	rows := make([][]uint32, len(bt.rows))
	for k, src := range bt.rows {
		rows[k] = make([]uint32, d)
		for u, v := range src {
			rows[k][it.inv[u]] = v
		}
	}
	delta := record.FromRows(d, rows, bt.meas)
	var res ingest.Result
	var alloc float64
	sec, alloc = timeIt(func() {
		r.ops.do("ingest.IngestBatch", func() (err error) {
			res, err = ingest.IngestBatch(mach, delta, ingest.Config{
				D: d, Selected: it.sel, Orders: met.ViewOrders, Trees: met.SchedTrees,
				Agg: record.OpSum, Cards: it.cards,
			})
			return err
		})
	})
	batchRows := float64(len(bt.rows))
	m["ingest.batch_wall_s"] = sec
	m["ingest.delta_build_sim_s"] = res.PhaseSeconds["ingest"]
	m["ingest.delta_merge_sim_s"] = res.DeltaMergeSeconds
	m["ingest.delta_merge_bytes"] = float64(res.DeltaMergeBytes)
	m["ingest.alloc_bytes_per_row"] = alloc / batchRows
	m["ingest.rows_per_s_per_view"] = batchRows * float64(len(met.ViewOrders)) / sec

	r.replayPublic(m, engineP50, buildSec)
}

// replayPublic measures what only the public API reaches: the server's
// cost over the engine's, a short replica episode, and a sketch build.
func (r *runner) replayPublic(m map[string]float64, engineP50, buildSec float64) {
	w := r.in.w
	var in *rolap.Input
	var cube *rolap.Cube
	ok := r.ops.do("Build", func() (err error) {
		if in, err = rolap.LoadCSV(bytes.NewReader(r.in.csv), rolap.CSVOptions{}); err != nil {
			return err
		}
		cube, err = rolap.Build(in, w.options())
		return err
	})
	if !ok {
		return
	}

	// server: the same queries, one client, cache off, so that the
	// difference from the engine's p50 is the server's own cost.
	var srv *rolap.Server
	if !r.ops.do("NewServer", func() (err error) {
		srv, err = cube.NewServer(rolap.ServerOptions{CacheSize: -1})
		return err
	}) {
		return
	}
	ask := func(call func(q *query) (*rolap.View, int64, time.Duration, error), qs []query) []float64 {
		lat := make([]float64, len(qs))
		for i := range qs {
			q, a := &qs[i], &r.in.answers[0][i]
			r.ops.do("query", func() error {
				v, val, l, err := call(q)
				lat[i] = l.Seconds()
				if err != nil {
					return err
				}
				return a.checkQuick(q, v, val)
			})
		}
		return lat
	}
	viaServer := func(q *query) (*rolap.View, int64, time.Duration, error) {
		v, val, _, l, err := exec(srv, q)
		return v, val, l, err
	}
	ask(viaServer, r.in.queries) // builds the prefix indexes
	runtime.GC()
	serverLat := ask(viaServer, r.in.queries)
	m["server.overhead_p50_us"] = (percentile(serverLat, 0.50) - engineP50) * 1e6

	// replica: 200 reads through two replicas, two batches on the
	// leader, then the wait until both have caught up.
	reads := r.in.queries
	if len(reads) > 200 {
		reads = reads[:200]
	}
	var rs *rolap.ReplicaSet
	if !r.ops.do("NewReplicaSet", func() (err error) {
		rs, err = cube.NewReplicaSet(rolap.ReplicaOptions{Replicas: 2, Server: rolap.ServerOptions{CacheSize: -1}})
		return err
	}) {
		return
	}
	defer rs.Close()
	ctx := context.Background()
	viaReplicas := func(q *query) (v *rolap.View, val int64, l time.Duration, err error) {
		t0 := time.Now()
		switch q.kind {
		case kindGroupBy:
			v, _, err = rs.GroupBy(ctx, q.dims, q.filters)
		case kindPoint:
			val, _, err = rs.Aggregate(ctx, q.dims, q.lo)
		default:
			val, _, err = rs.RangeAggregate(ctx, q.dims, q.lo, q.hi)
		}
		return v, val, time.Since(t0), err
	}
	ask(viaReplicas, reads)
	replicaLat := ask(viaReplicas, reads)
	m["replica.overhead_p50_us"] = (percentile(replicaLat, 0.50) - percentile(serverLat[:len(reads)], 0.50)) * 1e6
	for b := 0; b < len(r.in.batches) && b < 2; b++ {
		bt := &r.in.batches[b]
		r.ops.do("Ingest", func() error {
			_, err := cube.Ingest(bt.rows, bt.meas)
			return err
		})
		for _, rep := range rs.Stats().Replicas {
			m["replica.max_lag_batches"] = math.Max(m["replica.max_lag_batches"], float64(rep.Lag))
		}
	}
	t0 := time.Now()
	r.ops.do("WaitCaughtUp", func() error { return rs.WaitCaughtUp(ctx) })
	m["replica.catchup_s"] = time.Since(t0).Seconds()
	st := rs.Stats()
	m["replica.snapshot_ship_bytes"] = float64(st.SnapshotShipBytes)
	m["replica.delta_ship_bytes"] = float64(st.DeltaShipBytes)

	// sketch: the same build with a holistic measure.
	opts := w.options()
	opts.Aggregate = rolap.CountDistinct
	var distinct *rolap.Cube
	sec, _ := timeIt(func() {
		r.ops.do("Build", func() (err error) {
			distinct, err = rolap.Build(in, opts)
			return err
		})
	})
	if distinct != nil {
		dm := distinct.Metrics()
		m["sketch.build_overhead_ratio"] = sec / buildSec
		m["sketch.bytes_per_group"] = float64(dm.SketchBytes) / float64(dm.OutputRows)
	}
}
