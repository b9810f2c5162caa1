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
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/lattice"
	"repro/internal/record"
	"repro/internal/sketch"
)

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

	// topo is the published view set. Every change (AddView,
	// RemoveView, InvalidateViews, RestoreVersions) builds a whole new
	// Topology and swaps it in; writers run under Maintain, so they
	// never race each other, and readers load the value once.
	topo atomic.Pointer[Topology]

	// stateMu guards the per-view demand counters.
	stateMu sync.Mutex
	demand  map[lattice.ViewID]*ViewDemand
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

// Topology is one published state of the engine's view set: per live
// view its attribute order, planning row count, version counter and
// per-rank prefix-index slots, plus the last version of every retired
// view. A published Topology never changes (an index slot is filled at
// most once, on first use); a maintenance action publishes a new one
// that shares the entries of the views it did not touch, so their
// built indexes survive.
type Topology struct {
	views   []*viewState              // live views, sorted by ID
	retired map[lattice.ViewID]uint64 // last version of each retired view
}

// viewState is one live view of a Topology.
type viewState struct {
	id      lattice.ViewID
	order   lattice.Order
	rows    int64
	version uint64
	// index holds one prefix-index slot per rank, built from the rank's
	// sealed slice by the first query that needs it.
	index []indexSlot
}

// indexSlot is one rank's prefix index of one view, built at most once.
type indexSlot struct {
	once sync.Once
	ix   *Index
}

func newViewState(v lattice.ViewID, order lattice.Order, rows int64, version uint64, p int) *viewState {
	return &viewState{
		id:      v,
		order:   append(lattice.Order(nil), order...),
		rows:    rows,
		version: version,
		index:   make([]indexSlot, p),
	}
}

// col returns the column of dimension dim in the view's layout, or -1.
func (vs *viewState) col(dim int) int {
	for c, d := range vs.order {
		if d == dim {
			return c
		}
	}
	return -1
}

// search returns the position of view v in t.views, or where it would go.
func (t *Topology) search(v lattice.ViewID) int {
	return sort.Search(len(t.views), func(i int) bool { return t.views[i].id >= v })
}

// find returns view v's entry, or nil if v is not live.
func (t *Topology) find(v lattice.ViewID) *viewState {
	if i := t.search(v); i < len(t.views) && t.views[i].id == v {
		return t.views[i]
	}
	return nil
}

// with returns t with vs as its view's live entry.
func (t *Topology) with(vs *viewState) *Topology {
	i := t.search(vs.id)
	views := make([]*viewState, 0, len(t.views)+1)
	views = append(append(views, t.views[:i]...), vs)
	if i < len(t.views) && t.views[i].id == vs.id {
		i++
	}
	views = append(views, t.views[i:]...)
	retired := t.retired
	if _, ok := retired[vs.id]; ok {
		retired = make(map[lattice.ViewID]uint64, len(t.retired))
		for v, ver := range t.retired {
			if v != vs.id {
				retired[v] = ver
			}
		}
	}
	return &Topology{views: views, retired: retired}
}

// without returns t with view v retired at version ver.
func (t *Topology) without(v lattice.ViewID, ver uint64) *Topology {
	views := make([]*viewState, 0, len(t.views))
	for _, vs := range t.views {
		if vs.id != v {
			views = append(views, vs)
		}
	}
	retired := make(map[lattice.ViewID]uint64, len(t.retired)+1)
	for u, uv := range t.retired {
		retired[u] = uv
	}
	retired[v] = ver
	return &Topology{views: views, retired: retired}
}

// Views returns the live views, sorted by ViewID.
func (t *Topology) Views() []lattice.ViewID {
	out := make([]lattice.ViewID, len(t.views))
	for i, vs := range t.views {
		out[i] = vs.id
	}
	return out
}

// Order returns live view v's attribute order. Callers must not
// modify it.
func (t *Topology) Order(v lattice.ViewID) (lattice.Order, bool) {
	if vs := t.find(v); vs != nil {
		return vs.order, true
	}
	return nil, false
}

// Rows returns view v's global planning row count (0 if not live).
func (t *Topology) Rows(v lattice.ViewID) int64 {
	if vs := t.find(v); vs != nil {
		return vs.rows
	}
	return 0
}

// Version returns view v's version counter and whether v is live. The
// counter starts at 0 and goes up whenever the view's slices are
// replaced (an ingest batch), it is added, or it is retired, so a
// result stamped with (view, version) is current exactly while the
// view is live at that version. A retired view reports the version it
// retired at; re-adding it counts on from there.
func (t *Topology) Version(v lattice.ViewID) (uint64, bool) {
	if vs := t.find(v); vs != nil {
		return vs.version, true
	}
	return t.retired[v], false
}

// Versions copies the version counters of every view, live or
// retired, that has left version 0 (for persistence; a view missing
// from the map is at 0).
func (t *Topology) Versions() map[lattice.ViewID]uint64 {
	out := make(map[lattice.ViewID]uint64, len(t.retired))
	for v, ver := range t.retired {
		out[v] = ver
	}
	for _, vs := range t.views {
		if vs.version != 0 {
			out[vs.id] = vs.version
		}
	}
	return out
}

// PickSource returns the live view with the fewest global rows
// containing all of need's dimensions — the standard ROLAP rewrite.
// Ties on row count break to the smaller ViewID.
func (t *Topology) PickSource(need lattice.ViewID) (lattice.ViewID, error) {
	vs, err := t.pick(need)
	if err != nil {
		return 0, err
	}
	return vs.id, nil
}

func (t *Topology) pick(need lattice.ViewID) (*viewState, error) {
	var best *viewState
	for _, vs := range t.views { // ascending ID: the first of equal row counts wins
		if need.SubsetOf(vs.id) && (best == nil || vs.rows < best.rows) {
			best = vs
		}
	}
	if best == nil {
		return nil, fmt.Errorf("queryengine: no materialized view covers %v", need)
	}
	return best, nil
}

// New returns an engine over the machine's materialized views. orders
// maps each view to its materialized attribute order (the build's
// ViewOrders); rows maps each view to its global row count for
// planning — pass nil to derive the counts from the per-rank slices on
// disk (core.ViewGlobalRows). Every view starts at version 0.
func New(m *cluster.Machine, orders map[lattice.ViewID]lattice.Order, rows map[lattice.ViewID]int64, op record.AggOp) *Engine {
	t := &Topology{}
	for v, o := range orders {
		n, ok := rows[v]
		if !ok {
			n = core.ViewGlobalRows(m, v)
		}
		t.views = append(t.views, newViewState(v, o, n, 0, m.P()))
	}
	sort.Slice(t.views, func(i, j int) bool { return t.views[i].id < t.views[j].id })
	e := &Engine{m: m, agg: sketch.Agg(op), demand: make(map[lattice.ViewID]*ViewDemand)}
	e.topo.Store(t)
	return e
}

// Topology returns the engine's current view set. Read everything one
// decision needs from the one value: a later call may return a newer
// set.
func (e *Engine) Topology() *Topology { return e.topo.Load() }

// RestoreVersions seeds the version counters (loading a snapshot).
// Call it before the engine serves.
func (e *Engine) RestoreVersions(versions map[lattice.ViewID]uint64) {
	t := e.topo.Load()
	for v, ver := range versions {
		if vs := t.find(v); vs != nil {
			t = t.with(newViewState(v, vs.order, vs.rows, ver, e.m.P()))
		} else {
			t = t.without(v, ver)
		}
	}
	e.topo.Store(t)
}

// InvalidateViews records that an ingest batch replaced the slices of
// the views in rows, each with its new planning row count: in one
// published topology every such view's version counter is bumped and
// its prefix indexes are dropped (they are rebuilt lazily from the new
// slices on next use). Views the batch did not touch keep their
// indexes and version. Call under Maintain.
func (e *Engine) InvalidateViews(rows map[lattice.ViewID]int64) {
	t := e.topo.Load()
	views := append([]*viewState(nil), t.views...)
	for i, vs := range views {
		if n, ok := rows[vs.id]; ok {
			views[i] = newViewState(vs.id, vs.order, n, vs.version+1, e.m.P())
		}
	}
	e.topo.Store(&Topology{views: views, retired: t.retired})
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

// AddView registers a newly materialized view: its attribute order,
// its planning row count, and a version past any it had before, so
// result-cache entries from a previous incarnation of the view
// (retired and rebuilt, possibly under a different order) miss. Call
// under Maintain, after the view's slices are committed on disk.
func (e *Engine) AddView(v lattice.ViewID, order lattice.Order, rows int64) {
	t := e.topo.Load()
	ver, _ := t.Version(v)
	e.topo.Store(t.with(newViewState(v, order, rows, ver+1, e.m.P())))
}

// RemoveView retires view v from planning: queries that start after it
// pick another source, its prefix indexes go with its entry, and its
// version counter is bumped so cached results for the view miss. Call
// under Maintain (the drain barrier), before or after deleting the
// slices on disk.
func (e *Engine) RemoveView(v lattice.ViewID) {
	t := e.topo.Load()
	if vs := t.find(v); vs != nil {
		e.topo.Store(t.without(v, vs.version+1))
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

// Bound restricts dimension Dim to values in [Lo, Hi] inclusive. An
// equality filter is Lo == Hi.
type Bound struct {
	Dim    int
	Lo, Hi uint32
}

// Query is one request stated in dimensions: keep the rows inside
// every Bound, group them by the Group dimensions (in result order)
// and aggregate each group with the engine's operator. Empty Group
// collapses the selection to a single zero-dimension group (a scalar
// aggregate). A Query names no view: Execute picks the source view and
// resolves the columns against the view set it runs on, so a Query
// never goes stale.
type Query struct {
	Group  []int
	Bounds []Bound // sorted by Dim, one per dimension (NewQuery guarantees this)
	// NoIndex forces full scans even when the bounds cover a prefix of
	// the source view's sort order (for the indexed-vs-scan comparison).
	NoIndex bool
	// Percentile is the rank (in [0,1]) a quantile-operator engine
	// resolves each group's sketch at; ignored for every other
	// operator.
	Percentile float64
}

// Need returns the exact target view: every grouped or bounded
// dimension. When the source view is larger the query is a superset
// fallback.
func (q Query) Need() lattice.ViewID {
	need := lattice.Empty
	for _, dim := range q.Group {
		need = need.Add(dim)
	}
	for _, b := range q.Bounds {
		need = need.Add(b.Dim)
	}
	return need
}

// Key canonicalizes the logical query for result caching. Bounds are
// kept sorted by dimension, so queries that differ only in filter-map
// iteration order share a key; Group order is part of the key because
// it fixes the result's column order.
func (q Query) Key() string {
	var sb strings.Builder
	sb.WriteString("g")
	for _, dim := range q.Group {
		fmt.Fprintf(&sb, ",%d", dim)
	}
	sb.WriteString("|b")
	for _, b := range q.Bounds {
		fmt.Fprintf(&sb, ",%d:%d-%d", b.Dim, b.Lo, b.Hi)
	}
	if q.NoIndex {
		sb.WriteString("|noidx")
	}
	if q.Percentile != 0 {
		fmt.Fprintf(&sb, "|p%g", q.Percentile)
	}
	return sb.String()
}

// NewQuery states a request: group lists the internal dimensions of
// the result key (in result order), bounds the per-dimension row
// restrictions. A dimension may be both grouped and bounded — the
// bound then restricts which groups survive ("group by store where
// store = 3"), matching the gather-and-scan oracle. NewQuery reads no
// view set; Execute plans.
func (e *Engine) NewQuery(group []int, bounds map[int][2]uint32) (Query, error) {
	q := Query{Group: make([]int, len(group))}
	seen := lattice.Empty
	for k, dim := range group {
		if seen.Has(dim) {
			return Query{}, fmt.Errorf("queryengine: dimension %d repeated in group", dim)
		}
		seen = seen.Add(dim)
		q.Group[k] = dim
	}
	for dim, b := range bounds {
		if b[0] > b[1] {
			return Query{}, fmt.Errorf("queryengine: empty range %d..%d on dimension %d", b[0], b[1], dim)
		}
		q.Bounds = append(q.Bounds, Bound{Dim: dim, Lo: b[0], Hi: b[1]})
	}
	sort.Slice(q.Bounds, func(i, j int) bool { return q.Bounds[i].Dim < q.Bounds[j].Dim })
	return q, nil
}

// Metrics reports what one query cost on the simulated machine.
type Metrics struct {
	// Source is the view the query executed against.
	Source lattice.ViewID
	// Version is the source view's version counter in the view set the
	// execution planned and ran against. Execution holds the read side
	// of the maintenance lock, whose write side every version writer
	// holds, so the result is computed from exactly this version of the
	// view's slices; cache entries are stamped with (Source, Version).
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

// plan is a Query resolved against one view: the source, and the
// query's dimensions as the source's columns.
type plan struct {
	src     *viewState
	outCols []int
	bounds  []record.ColRange // sorted by Col
	noIndex bool
}

func (vs *viewState) plan(q Query) plan {
	pl := plan{src: vs, outCols: make([]int, len(q.Group)), noIndex: q.NoIndex}
	for k, dim := range q.Group {
		pl.outCols[k] = vs.col(dim)
	}
	for _, b := range q.Bounds {
		pl.bounds = append(pl.bounds, record.ColRange{Col: vs.col(b.Dim), Lo: b.Lo, Hi: b.Hi})
	}
	sort.Slice(pl.bounds, func(i, j int) bool { return pl.bounds[i].Col < pl.bounds[j].Col })
	return pl
}

// Execute plans the query and runs it scatter–gather, returning the
// merged result: a table with len(Group) columns, globally aggregated
// and sorted in Group order. Executions share the machine: each holds
// the read side of the maintenance lock, picks the source view from
// the topology published at that moment, scans the p rank slices on
// plain goroutines and records every charge in its own ledger, which
// is committed onto the simulated clocks under the "query" phase once
// the result is merged — billed exactly as one SPMD superstep (local
// scans, a gather at rank 0, the root's merge) would have been.
func (e *Engine) Execute(q Query) (*record.Table, Metrics, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	// The view set changes only under Maintain, which waits for this
	// read side, so the source and its layout hold for the whole
	// execution.
	need := q.Need()
	src, err := e.topo.Load().pick(need)
	if err != nil {
		return nil, Metrics{}, err
	}
	pl := src.plan(q)

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
		parts[r], scanned[r], idxUsed[r] = e.scanLocal(l, r, pl)
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
	met := Metrics{Source: src.id, Version: src.version}
	met.SimSeconds, met.BytesMoved = e.m.Commit(l)
	for r := 0; r < p; r++ {
		met.RowsScanned += scanned[r]
		met.IndexUsed = met.IndexUsed || idxUsed[r]
	}
	e.noteDemand(need, src.id, met.RowsScanned)
	return out, met, nil
}

// scanLocal runs the plan's local half for rank r, recording its
// charges in l: narrow the slice with the prefix index when the bounds
// allow it, then filter the remaining rows by the residual bounds,
// project onto the output columns and partially aggregate. Returns the
// sorted partial aggregate, the number of source rows scanned, and
// whether the index was used.
func (e *Engine) scanLocal(l *cluster.Ledger, r int, pl plan) (*record.Table, int64, bool) {
	disk := e.m.Proc(r).Disk()
	file := core.ViewFile(pl.src.id)
	if disk.Len(file) <= 0 {
		return record.New(len(pl.outCols), 0), 0, false
	}

	boundAt := make(map[int]record.ColRange, len(pl.bounds))
	for _, b := range pl.bounds {
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
	indexed := !pl.noIndex && (len(eq) > 0 || rng != nil)
	if indexed {
		ix := e.sliceIndex(l, r, pl.src)
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
	for _, b := range pl.bounds {
		if b.Col >= prefix {
			residual = append(residual, b)
		}
	}

	n := rows.Len()
	l.Compute(r, costmodel.ScanOps(n))
	part, kept := record.FilterProjectAggregate(rows, residual, pl.outCols, e.agg)
	l.Compute(r, costmodel.SortOps(kept)+costmodel.ScanOps(kept))
	return part, int64(n), indexed
}

// sliceIndex returns rank r's prefix index of the view, building it on
// first use from the sealed slice's leading-column run directory (one
// charged read of that column; the directory is retained in memory,
// like any database's block index). Each slot is built once:
// concurrent queries wait for the one that builds it, and only that
// query's ledger pays for the build. Every live view file is sealed
// when it goes live, so an unsealed one is a broken invariant and
// panics (Execute recovers the panic into an error).
func (e *Engine) sliceIndex(l *cluster.Ledger, r int, vs *viewState) *Index {
	slot := &vs.index[r]
	slot.once.Do(func() {
		s, bytes, ok := e.m.Proc(r).Disk().ReadLeading(core.ViewFile(vs.id))
		if !ok {
			return
		}
		l.Read(r, bytes)
		slot.ix = BuildIndexSlice(s)
		l.Compute(r, costmodel.ScanOps(slot.ix.Runs()))
	})
	if slot.ix == nil {
		panic(fmt.Sprintf("queryengine: view %v on rank %d is not sealed", vs.id, r))
	}
	return slot.ix
}
