// Package queryengine answers OLAP queries against the cube where it
// lives: distributed over the local disks of the shared-nothing
// machine that built it. Instead of gathering a source view onto one
// rank and scanning it serially, a query runs scatter–gather: the
// planner picks the smallest materialized superset view, every
// processor filters, projects, and partially aggregates its own local
// slice, and the partial aggregates are merged at the root with a
// k-way aggregating merge (record's packed-key loser tree, falling
// back to the comparison heap when keys don't pack) — the
// cluster-resident serving architecture of Hespe et al. (local scans +
// partial-aggregate merge) applied to the paper's partitioned cube.
//
// Because every view slice is stored globally sorted in its attribute
// order, equality filters on a prefix of that order do not scan: a
// per-slice sorted-prefix Index binary-searches to the matching run
// and only the run's rows are read and charged. All query work — disk
// reads, scan/sort/merge compute, and the gather h-relation — is
// charged on the machine's simulated cost model under a dedicated
// "query" phase, and reported per query as Metrics.
package queryengine

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/lattice"
	"repro/internal/record"
	"repro/internal/sketch"
)

// ErrStalePlan reports that a query was planned against a view set
// that has since changed: the source view was retired, or it was
// rebuilt under a different attribute order, so the planned column
// indices no longer mean what they meant. Callers replan and retry —
// the materialization advisor mutates the view set online, so any
// plan can go stale between planning and execution.
var ErrStalePlan = errors.New("queryengine: plan is stale (materialized view set changed)")

// Engine executes queries against a built cube's machine. Queries
// share the machine: each runs its rank scans on plain goroutines under
// the read side of the maintenance lock and bills its own ledger, which
// is committed onto the simulated clocks when the query is done; any
// number of executions run at once, and only maintenance (ingest,
// advisor actions) excludes them. The front end (admission control,
// caching) layers above.
type Engine struct {
	m *cluster.Machine
	// agg combines the operator's measures. For a holistic operator the
	// views carry each group's sealed sketch in their state column; a
	// query folds them in accumulators of its own passes and returns
	// the estimates served from the merged blobs.
	agg record.Agg

	// mu is the maintenance lock: Execute holds its read side, so any
	// number of queries run at once, and Maintain its write side.
	mu sync.RWMutex

	// stateMu guards the mutable query-side state: the materialized
	// view set and its orders (the advisor adds and retires views
	// online), planning row counts, per-view version counters, the
	// lazily built slice indexes, and the per-view demand counters.
	// Incremental ingest rewrites view slices, so this state must be
	// readable concurrently with queries and invalidatable per view.
	stateMu  sync.Mutex
	orders   map[lattice.ViewID]lattice.Order
	rows     map[lattice.ViewID]int64
	versions map[lattice.ViewID]uint64
	indexes  map[idxKey]*indexEntry
	demand   map[lattice.ViewID]*ViewDemand
}

// ViewDemand accumulates traffic evidence for one *target* view (the
// exact set of dimensions a query needed, before superset rewrite) —
// the advisor's raw input. SourceQueries is the flip side: how often
// the view served as the *source* of some query, which is what a
// retirement decision must consult (a view can have zero direct
// demand yet carry heavy fallback traffic for its subsets).
type ViewDemand struct {
	// Hits counts queries whose needed view was materialized exactly.
	Hits int64
	// Fallbacks counts queries for this target that were rewritten to
	// a strict-superset scan, and FallbackRows the source rows those
	// scans read — the scan cost a materialization would eliminate.
	Fallbacks    int64
	FallbackRows int64
	// SourceQueries counts queries (of any target) answered *from*
	// this view.
	SourceQueries int64
}

type idxKey struct {
	view lattice.ViewID
	rank int
}

// New returns an engine over the machine's materialized views. orders
// maps each view to its materialized attribute order (the build's
// ViewOrders); rows maps each view to its global row count for
// planning — pass nil to derive the counts from the per-rank slices on
// disk (core.ViewGlobalRows).
func New(m *cluster.Machine, orders map[lattice.ViewID]lattice.Order, rows map[lattice.ViewID]int64, op record.AggOp) *Engine {
	if rows == nil {
		rows = make(map[lattice.ViewID]int64, len(orders))
		for v := range orders {
			rows[v] = core.ViewGlobalRows(m, v)
		}
	}
	// Copy both maps: the engine's view set mutates online (AddView /
	// RemoveView) under its own lock, so it must not alias the
	// caller's maps.
	os := make(map[lattice.ViewID]lattice.Order, len(orders))
	for v, o := range orders {
		os[v] = append(lattice.Order(nil), o...)
	}
	rs := make(map[lattice.ViewID]int64, len(rows))
	for v, n := range rows {
		rs[v] = n
	}
	return &Engine{
		m:        m,
		agg:      sketch.Agg(op),
		orders:   os,
		rows:     rs,
		versions: make(map[lattice.ViewID]uint64, len(orders)),
		indexes:  make(map[idxKey]*indexEntry),
		demand:   make(map[lattice.ViewID]*ViewDemand),
	}
}

// Holistic reports whether the engine's operator aggregates through
// sketch state, i.e. query results are estimates.
func (e *Engine) Holistic() bool { return e.agg.Op.Holistic() }

// ViewVersion returns view v's version counter. It starts at 0 and is
// bumped by InvalidateView whenever an ingest batch replaces the
// view's slices, so any cache keyed on (version, query) misses
// naturally after the underlying data changes.
func (e *Engine) ViewVersion(v lattice.ViewID) uint64 {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.versions[v]
}

// Versions snapshots all view version counters (for persistence).
func (e *Engine) Versions() map[lattice.ViewID]uint64 {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	out := make(map[lattice.ViewID]uint64, len(e.versions))
	for v, ver := range e.versions {
		out[v] = ver
	}
	return out
}

// RestoreVersions seeds the version counters (loading a snapshot).
func (e *Engine) RestoreVersions(versions map[lattice.ViewID]uint64) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	for v, ver := range versions {
		e.versions[v] = ver
	}
}

// InvalidateView records that view v's slices were replaced: the
// version counter is bumped, every rank's prefix index for the view is
// dropped (it is rebuilt lazily from the new slices on next use), and
// the planning row count is refreshed. Views an ingest batch did not
// touch keep their indexes and version.
func (e *Engine) InvalidateView(v lattice.ViewID, rows int64) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	e.versions[v]++
	e.rows[v] = rows
	for r := 0; r < e.m.P(); r++ {
		delete(e.indexes, idxKey{view: v, rank: r})
	}
}

// Maintain runs fn while holding the machine exclusively, blocking
// Execute for the duration — the hook incremental ingest uses to run
// its delta supersteps without interleaving with query scans and
// commits, and the drain barrier the advisor retires views behind
// (in-flight executions finish before fn runs).
func (e *Engine) Maintain(fn func() error) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return fn()
}

// P returns the machine size queries execute on.
func (e *Engine) P() int { return e.m.P() }

// Order returns the materialized attribute order of view v.
func (e *Engine) Order(v lattice.ViewID) (lattice.Order, bool) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	o, ok := e.orders[v]
	return o, ok
}

// Views returns the materialized view set, sorted by ViewID.
func (e *Engine) Views() []lattice.ViewID {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	out := make([]lattice.ViewID, 0, len(e.orders))
	for v := range e.orders {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Rows returns view v's global planning row count (0 if not
// materialized).
func (e *Engine) Rows(v lattice.ViewID) int64 {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.rows[v]
}

// AddView registers a newly materialized view: its attribute order,
// its planning row count, and a version bump so any result-cache
// entries from a previous incarnation of the view (retired and
// rebuilt, possibly under a different order) miss. Call under
// Maintain, after the view's slices are committed on disk.
func (e *Engine) AddView(v lattice.ViewID, order lattice.Order, rows int64) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	e.orders[v] = append(lattice.Order(nil), order...)
	e.rows[v] = rows
	e.versions[v]++
	for r := 0; r < e.m.P(); r++ {
		delete(e.indexes, idxKey{view: v, rank: r})
	}
}

// RemoveView retires view v from planning: plans already holding it
// fail with ErrStalePlan and replan, per-rank prefix indexes are
// dropped, and the version counter is bumped so cached results for
// the view miss. Call under Maintain (the drain barrier), before or
// after deleting the slices on disk.
func (e *Engine) RemoveView(v lattice.ViewID) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	delete(e.orders, v)
	delete(e.rows, v)
	e.versions[v]++
	for r := 0; r < e.m.P(); r++ {
		delete(e.indexes, idxKey{view: v, rank: r})
	}
}

// DemandSnapshot copies the cumulative per-view demand counters. The
// counters only grow; consumers (the advisor's decayed window) diff
// successive snapshots.
func (e *Engine) DemandSnapshot() map[lattice.ViewID]ViewDemand {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	out := make(map[lattice.ViewID]ViewDemand, len(e.demand))
	for v, d := range e.demand {
		out[v] = *d
	}
	return out
}

// noteDemand records one executed query: need is the exact target
// view, src the view it was answered from, scanned the source rows
// read.
func (e *Engine) noteDemand(need, src lattice.ViewID, scanned int64) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	nd := e.demand[need]
	if nd == nil {
		nd = &ViewDemand{}
		e.demand[need] = nd
	}
	if need == src {
		nd.Hits++
	} else {
		nd.Fallbacks++
		nd.FallbackRows += scanned
	}
	sd := e.demand[src]
	if sd == nil {
		sd = &ViewDemand{}
		e.demand[src] = sd
	}
	sd.SourceQueries++
}

// PickSource returns the materialized view with the fewest global rows
// containing all of need's dimensions — the standard ROLAP rewrite.
// Ties on row count break to the smaller ViewID, so planning is
// deterministic regardless of map iteration order.
func (e *Engine) PickSource(need lattice.ViewID) (lattice.ViewID, error) {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	best := lattice.ViewID(0)
	bestRows := int64(-1)
	for v := range e.orders {
		if !need.SubsetOf(v) {
			continue
		}
		rows := e.rows[v]
		if bestRows == -1 || rows < bestRows || (rows == bestRows && v < best) {
			best, bestRows = v, rows
		}
	}
	if bestRows == -1 {
		return 0, fmt.Errorf("queryengine: no materialized view covers %v", need)
	}
	return best, nil
}

// Bound restricts source rows: column Col (in the source view's
// layout) must hold a value in [Lo, Hi] inclusive. An equality filter
// is Lo == Hi.
type Bound struct {
	Col    int
	Lo, Hi uint32
}

// Query is one executable scatter–gather request: scan view View's
// slices, keep rows satisfying every Bound, project the kept rows onto
// OutCols (source column indices, in result order), and aggregate
// equal keys with the engine's operator. Empty OutCols collapses the
// selection to a single zero-dimension group (a scalar aggregate).
type Query struct {
	View    lattice.ViewID
	Bounds  []Bound // sorted by Col (NewQuery guarantees this)
	OutCols []int
	// NoIndex forces full scans even when the bounds cover a prefix of
	// the view's sort order (for the indexed-vs-scan comparison).
	NoIndex bool
	// Percentile is the rank (in [0,1]) a quantile-operator engine
	// resolves each group's sketch at; ignored for every other
	// operator.
	Percentile float64
	// Need is the exact target view (every grouped or bounded
	// dimension); when Need != View the query is a superset fallback.
	// NewQuery sets it; it feeds the per-view demand counters, not the
	// execution plan, so it is not part of Key.
	Need lattice.ViewID
	// Order is the source view's attribute order the plan's column
	// indices were resolved against. Execute rejects the query with
	// ErrStalePlan if the view's current order differs (retired, or
	// retired and rebuilt under another order) — without this check a
	// stale plan could silently aggregate the wrong columns. Nil skips
	// the check (hand-built queries in tests).
	Order lattice.Order
}

// Key canonicalizes the query for result caching. Bounds are kept
// sorted by column, so queries that differ only in filter-map
// iteration order share a key; OutCols order is part of the key
// because it fixes the result's column order.
func (q Query) Key() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "v%d|o", uint32(q.View))
	for _, c := range q.OutCols {
		fmt.Fprintf(&sb, ",%d", c)
	}
	sb.WriteString("|b")
	for _, b := range q.Bounds {
		fmt.Fprintf(&sb, ",%d:%d-%d", b.Col, b.Lo, b.Hi)
	}
	if q.NoIndex {
		sb.WriteString("|noidx")
	}
	if q.Percentile != 0 {
		fmt.Fprintf(&sb, "|p%g", q.Percentile)
	}
	return sb.String()
}

// NewQuery plans a request: group lists the internal dimensions of the
// result key (in result order), bounds the per-dimension row
// restrictions. The source view is the smallest materialized superset
// of everything referenced; columns are resolved against its
// materialized order. A dimension may be both grouped and bounded —
// the bound then restricts which groups survive ("group by store
// where store = 3"), matching the gather-and-scan oracle.
func (e *Engine) NewQuery(group []int, bounds map[int][2]uint32) (Query, error) {
	need := lattice.Empty
	for _, dim := range group {
		if need.Has(dim) {
			return Query{}, fmt.Errorf("queryengine: dimension %d repeated in group", dim)
		}
		need = need.Add(dim)
	}
	for dim := range bounds {
		need = need.Add(dim)
	}
	src, err := e.PickSource(need)
	if err != nil {
		return Query{}, err
	}
	order, ok := e.Order(src)
	if !ok {
		// The view set changed between PickSource and the order read;
		// callers treat this like any other stale plan and replan.
		return Query{}, fmt.Errorf("%w: view %v retired during planning", ErrStalePlan, src)
	}
	col := make(map[int]int, len(order)) // dimension -> source column
	for c, dim := range order {
		col[dim] = c
	}
	q := Query{View: src, OutCols: make([]int, len(group)), Need: need, Order: order}
	for k, dim := range group {
		q.OutCols[k] = col[dim]
	}
	for dim, b := range bounds {
		if b[0] > b[1] {
			return Query{}, fmt.Errorf("queryengine: empty range %d..%d on dimension %d", b[0], b[1], dim)
		}
		q.Bounds = append(q.Bounds, Bound{Col: col[dim], Lo: b[0], Hi: b[1]})
	}
	sort.Slice(q.Bounds, func(i, j int) bool { return q.Bounds[i].Col < q.Bounds[j].Col })
	return q, nil
}

// Metrics reports what one query cost on the simulated machine.
type Metrics struct {
	// Source is the view the query executed against.
	Source lattice.ViewID
	// Version is the source view's version counter at execution time.
	// Execution holds the read side of the maintenance lock, whose write
	// side every version writer holds, so the result is guaranteed to be
	// computed from exactly this version of the view's slices — cache
	// entries must be stamped with it, not with a version read at plan
	// time (a concurrent ingest between plan and execution would
	// otherwise file a post-batch result under the pre-batch key).
	Version uint64
	// RowsScanned counts source rows read and tested across all
	// processors (after index narrowing).
	RowsScanned int64
	// BytesMoved is the query's network volume (the partial-aggregate
	// gather).
	BytesMoved int64
	// SimSeconds is the query's simulated makespan contribution.
	SimSeconds float64
	// IndexUsed reports whether the prefix index narrowed any slice.
	IndexUsed bool
}

// Execute runs the query scatter–gather and returns the merged result:
// a table with len(OutCols) columns, globally aggregated and sorted in
// OutCols order. Executions share the machine: each holds the read side
// of the maintenance lock, scans the p rank slices on plain goroutines
// and records every charge in its own ledger, which is committed onto
// the simulated clocks under the "query" phase once the result is
// merged — billed exactly as one SPMD superstep (local scans, a gather
// at rank 0, the root's merge) would have been.
func (e *Engine) Execute(q Query) (*record.Table, Metrics, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	// Validate under e.mu: the view set only changes under Maintain,
	// which holds e.mu exclusively, so a plan that passes here stays
	// valid for the whole execution.
	e.stateMu.Lock()
	order, ok := e.orders[q.View]
	ver := e.versions[q.View]
	e.stateMu.Unlock()
	if !ok {
		return nil, Metrics{}, fmt.Errorf("%w: view %v not materialized", ErrStalePlan, q.View)
	}
	if q.Order != nil && !orderEqual(q.Order, order) {
		return nil, Metrics{}, fmt.Errorf("%w: view %v order changed since planning", ErrStalePlan, q.View)
	}
	for _, c := range q.OutCols {
		if c < 0 || c >= len(order) {
			return nil, Metrics{}, fmt.Errorf("queryengine: output column %d out of range for view %v", c, q.View)
		}
	}
	for _, b := range q.Bounds {
		if b.Col < 0 || b.Col >= len(order) {
			return nil, Metrics{}, fmt.Errorf("queryengine: bound column %d out of range for view %v", b.Col, q.View)
		}
	}

	p := e.m.P()
	l := cluster.NewLedger(p, "query")
	parts := make([]*record.Table, p)
	scanned := make([]int64, p)
	idxUsed := make([]bool, p)
	errs := make([]error, p)
	scan := func(r int) {
		defer func() {
			if v := recover(); v != nil {
				errs[r] = fmt.Errorf("queryengine: rank %d scan panicked: %v", r, v)
			}
		}()
		parts[r], scanned[r], idxUsed[r] = e.scanLocal(l, r, q, e.agg)
		// Sketch blobs travel with their rows: the gather charge
		// includes the sealed state of every shipped group.
		l.Gather(r, parts[r].Bytes()+parts[r].StateBytes())
	}
	var wg sync.WaitGroup
	for r := 1; r < p; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			scan(r)
		}(r)
	}
	scan(0)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, Metrics{}, err
	}

	total, streams := 0, 0
	for _, t := range parts {
		if t.Len() > 0 {
			total += t.Len()
			streams++
		}
	}
	// Loser-tree k-way merge on packed keys (heap fallback for unpackable
	// keys); the MergeOps charge is path-independent.
	l.Root(costmodel.MergeOps(total, streams))
	out := record.MergeSortedAggregateAgg(parts, e.agg)
	if e.agg.State != nil {
		// Serve estimates in place: the caller sees plain values.
		l.Root(costmodel.ScanOps(out.Len()))
		sketch.Resolve(e.agg.Op, out, q.Percentile)
	}
	met := Metrics{Source: q.View, Version: ver}
	met.SimSeconds, met.BytesMoved = e.m.Commit(l)
	for r := 0; r < p; r++ {
		met.RowsScanned += scanned[r]
		met.IndexUsed = met.IndexUsed || idxUsed[r]
	}
	e.noteDemand(q.Need, q.View, met.RowsScanned)
	return out, met, nil
}

func orderEqual(a, b lattice.Order) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// scanLocal runs the query's local half for rank r, recording its
// charges in l: narrow the slice with the prefix index when the bounds
// allow it, then filter the remaining rows by the residual bounds,
// project onto OutCols and partially aggregate. Returns the sorted
// partial aggregate, the number of source rows scanned, and whether
// the index was used.
func (e *Engine) scanLocal(l *cluster.Ledger, r int, q Query, agg record.Agg) (*record.Table, int64, bool) {
	disk := e.m.Proc(r).Disk()
	file := core.ViewFile(q.View)
	if disk.Len(file) <= 0 {
		return record.New(len(q.OutCols), 0), 0, false
	}

	boundAt := make(map[int]Bound, len(q.Bounds))
	for _, b := range q.Bounds {
		boundAt[b.Col] = b
	}
	// Longest equality prefix of the sort order, plus an optional range
	// on the next column — the part of the predicate the index resolves.
	var eq []uint32
	for {
		b, ok := boundAt[len(eq)]
		if !ok || b.Lo != b.Hi {
			break
		}
		eq = append(eq, b.Lo)
	}
	var rng *[2]uint32
	if b, ok := boundAt[len(eq)]; ok {
		rng = &[2]uint32{b.Lo, b.Hi}
	}

	var rows *record.Table
	var bytes int
	prefix := 0
	indexed := !q.NoIndex && (len(eq) > 0 || rng != nil)
	if indexed {
		ix := e.sliceIndex(l, r, q.View, file)
		lo, hi, ops := ix.Lookup(eq, rng)
		l.Compute(r, ops)
		rows, bytes = disk.ReadWindow(file, lo, hi)
		prefix = len(eq)
		if rng != nil {
			prefix++
		}
	} else {
		rows, bytes, _ = disk.Read(file)
	}
	l.Read(r, bytes)
	var residual []record.ColRange
	for _, b := range q.Bounds {
		if b.Col >= prefix {
			residual = append(residual, record.ColRange{Col: b.Col, Lo: b.Lo, Hi: b.Hi})
		}
	}

	n := rows.Len()
	l.Compute(r, costmodel.ScanOps(n))
	part, kept := record.FilterProjectAggregate(rows, residual, q.OutCols, agg)
	l.Compute(r, costmodel.SortOps(kept)+costmodel.ScanOps(kept))
	return part, int64(n), indexed
}

// sliceIndex returns rank r's prefix index of the view, building it on
// first use (one charged read of the leading column, or of the whole
// slice while it is still row-form; the directory is retained in
// memory, like any database's block index). Each index is built once:
// concurrent queries wait for the one that builds it, and only that
// query's ledger pays for the build.
func (e *Engine) sliceIndex(l *cluster.Ledger, r int, v lattice.ViewID, file string) *Index {
	key := idxKey{view: v, rank: r}
	e.stateMu.Lock()
	ent := e.indexes[key]
	if ent == nil {
		ent = &indexEntry{}
		e.indexes[key] = ent
	}
	e.stateMu.Unlock()
	ent.once.Do(func() {
		disk := e.m.Proc(r).Disk()
		if s, bytes, ok := disk.ReadLeading(file); ok {
			// Sealed slice: the index is the leading column's run
			// directory, read directly.
			l.Read(r, bytes)
			ent.ix = BuildIndexSlice(s)
			l.Compute(r, costmodel.ScanOps(ent.ix.Runs()))
			return
		}
		t, bytes, _ := disk.Read(file)
		l.Read(r, bytes)
		l.Compute(r, costmodel.ScanOps(t.Len()))
		ent.ix = BuildIndex(t)
	})
	return ent.ix
}

// indexEntry is one (view, rank) prefix index, built at most once.
type indexEntry struct {
	once sync.Once
	ix   *Index
}
