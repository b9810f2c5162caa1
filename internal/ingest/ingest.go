// Package ingest implements incremental cube maintenance on the
// shared-nothing machine: new fact rows arrive in batches, each batch
// is built into a sorted delta cube with the same pipeline as the
// initial build (local aggregate, Adaptive–Sample–Sort, Pipesort over
// the retained schedule trees), and the per-view deltas are merged
// into the live views with the paper's Procedure 3 case machinery:
//
//   - The delta root of each dimension partition is routed against the
//     *existing* live root slice boundaries (the gathered last keys
//     stand in for sampled pivots), so delta slices align with live
//     slices instead of being re-partitioned from scratch.
//   - Prefix views then merge with a local two-way sorted merge
//     followed by the Case 1 boundary-row exchange: alignment
//     guarantees the merged concatenation is globally sorted, with at
//     most equal keys facing each other across neighbor boundaries.
//   - Non-prefix views (and all views when the live root is not
//     materialized) reuse the Case 2 overlap-run exchange: delta runs
//     travel to the owner of their live key range and two-way merge
//     with the local live slice. If the merged view drifts past the
//     balance threshold the Case 3 full sample sort redistributes it.
//
// Crash atomicity: every merged view is written to a staging file;
// live views are swapped in only after a commit barrier that every
// processor must pass. Injected crashes fire at superstep entry (and
// phase/epoch boundaries), so a crash anywhere in the batch aborts all
// processors before any live file is touched — the cube recovers to
// its exact pre-batch state by discarding the staging files.
package ingest

import (
	"fmt"
	"strings"

	"repro/internal/balance"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/mergepart"
	"repro/internal/record"
	"repro/internal/sketch"
)

// Phase names of the incremental pipeline, charged on the simulated
// clock exactly like the build phases ("partition", "plan", ...).
const (
	// PhaseIngest covers batch staging and delta-cube construction.
	PhaseIngest = "ingest"
	// PhaseDeltaMerge covers merging delta slices into live views and
	// the commit barrier.
	PhaseDeltaMerge = "deltamerge"
)

// BatchFile names the staged batch share on each processor's disk.
const BatchFile = "ingest.batch"

// deltaFile names a view's delta slice while a batch is in flight.
func deltaFile(v lattice.ViewID) string { return "ingest.delta." + v.String() }

// stageFile names a view's merged-but-uncommitted slice.
func stageFile(v lattice.ViewID) string { return "ingest.stage." + v.String() }

// Config parameterizes an incremental batch. Orders is required: it is
// the live cube's materialized attribute orders (core
// Metrics.ViewOrders), which fix both the delta build orders and the
// merge targets. Trees optionally carries the retained build schedule
// trees (core Metrics.SchedTrees); dimensions without one fall back to
// a deterministic schedule derived from Orders, so local-tree builds
// and reloaded snapshots remain ingestable.
type Config struct {
	// D is the data dimensionality.
	D int
	// Selected lists the materialized views; nil means the full cube.
	Selected []lattice.ViewID
	// Orders maps every selected view to its live attribute order.
	Orders map[lattice.ViewID]lattice.Order
	// Trees maps dimension index to the retained build schedule tree.
	Trees map[int]*lattice.Tree
	// Gamma is the Adaptive–Sample–Sort shift threshold (default 1%).
	Gamma float64
	// MergeGamma is the delta-merge rebalance threshold (default 3%).
	MergeGamma float64
	// SampleCap overrides the spaced-sample size (default 100p).
	SampleCap int
	// Agg is the aggregate operator (default record.OpSum).
	Agg record.AggOp
	// Cards optionally carries the per-dimension effective
	// cardinalities (core Config.Cards): delta external sorts then run
	// with caller-supplied key plans instead of measuring per run.
	Cards []int
	// OverlapComm runs the delta h-relations on the overlap lane.
	OverlapComm bool
	// Faults, when non-nil, installs a fault-injection plan for the
	// duration of the batch (uninstalled afterwards).
	Faults *faults.Plan
}

func (c Config) withDefaults() Config {
	if c.Gamma == 0 {
		c.Gamma = 0.01
	}
	if c.MergeGamma == 0 {
		c.MergeGamma = 0.03
	}
	return c
}

func (c Config) validate(m *cluster.Machine, batch *record.Table, sel []lattice.ViewID) error {
	if c.D < 1 || c.D > lattice.MaxDims {
		return fmt.Errorf("ingest: bad dimensionality %d (want 1..%d)", c.D, lattice.MaxDims)
	}
	if batch == nil {
		return fmt.Errorf("ingest: nil batch")
	}
	if batch.D != c.D {
		return fmt.Errorf("ingest: batch has %d columns, config says %d", batch.D, c.D)
	}
	if c.Gamma <= 0 || c.Gamma >= 1 {
		return fmt.Errorf("ingest: gamma %v out of range (0,1)", c.Gamma)
	}
	if c.MergeGamma <= 0 || c.MergeGamma >= 1 {
		return fmt.Errorf("ingest: merge gamma %v out of range (0,1)", c.MergeGamma)
	}
	if c.SampleCap < 0 {
		return fmt.Errorf("ingest: negative sample cap %d", c.SampleCap)
	}
	full := lattice.Full(c.D)
	for _, v := range sel {
		if !v.SubsetOf(full) {
			return fmt.Errorf("ingest: selected view %#x outside the %d-dimensional lattice", uint32(v), c.D)
		}
		o, ok := c.Orders[v]
		if !ok {
			return fmt.Errorf("ingest: no materialized order for view %v", v)
		}
		if o.View() != v {
			return fmt.Errorf("ingest: order %v does not cover view %v", o, v)
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(m.P()); err != nil {
			return err
		}
	}
	return nil
}

// Result reports what one batch did.
type Result struct {
	P int
	// Rows is the number of facts in the batch.
	Rows int64
	// SimSeconds is the simulated makespan added by the batch.
	SimSeconds float64
	// PhaseSeconds is the per-phase makespan contribution: "ingest"
	// (delta build) and "deltamerge" (merge into live views).
	PhaseSeconds map[string]float64
	// BytesMoved and Supersteps are the communication added by the
	// batch; DeltaMergeBytes is the "deltamerge" share of BytesMoved.
	BytesMoved      int64
	Supersteps      int64
	DeltaMergeBytes int64
	// DeltaMergeSeconds is PhaseSeconds["deltamerge"].
	DeltaMergeSeconds float64
	// CaseCounts tallies the merge case applied per touched view.
	CaseCounts map[mergepart.Case]int
	// Changed marks the views whose live slices were replaced. Views
	// with no delta rows anywhere are skipped and keep their slices
	// (and any query-side indexes) byte-for-byte.
	Changed map[lattice.ViewID]bool
	// ViewRows is the post-merge global row count of every selected
	// view.
	ViewRows map[lattice.ViewID]int64
}

// procOut captures per-processor observations during the SPMD run.
type procOut struct {
	phase   map[string]float64
	cases   map[mergepart.Case]int
	changed map[lattice.ViewID]bool
}

// IngestBatch applies one batch of fact rows (D dimension columns in
// canonical order, plus measures) to the live cube on the machine.
// On success every selected view's slices hold the merged result; on
// error — an injected crash surfaces as a *faults.CrashError — the
// live views are untouched and all in-flight batch state is discarded,
// so the cube remains queryable at its pre-batch contents.
func IngestBatch(m *cluster.Machine, batch *record.Table, cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	sel := cfg.Selected
	if sel == nil {
		sel = lattice.AllViews(cfg.D)
	}
	if err := cfg.validate(m, batch, sel); err != nil {
		return Result{}, err
	}
	if err := m.SetFaults(cfg.Faults); err != nil {
		return Result{}, err
	}
	defer m.SetFaults(nil)

	np := m.P()
	outs := make([]*procOut, np)
	for i := range outs {
		outs[i] = &procOut{
			phase:   map[string]float64{},
			cases:   map[mergepart.Case]int{},
			changed: map[lattice.ViewID]bool{},
		}
	}
	st0 := m.Stats()
	t0 := m.SimSeconds()

	err := m.Run(func(p *cluster.Proc) {
		ingestOnProc(p, batch, cfg, sel, outs[p.Rank()])
	})
	if err != nil {
		discardStaged(m)
		return Result{}, err
	}

	st1 := m.Stats()
	res := Result{
		P:               np,
		Rows:            int64(batch.Len()),
		SimSeconds:      m.SimSeconds() - t0,
		PhaseSeconds:    map[string]float64{},
		BytesMoved:      st1.BytesMoved - st0.BytesMoved,
		Supersteps:      st1.Supersteps - st0.Supersteps,
		DeltaMergeBytes: st1.ByPhase[PhaseDeltaMerge] - st0.ByPhase[PhaseDeltaMerge],
		CaseCounts:      map[mergepart.Case]int{},
		Changed:         map[lattice.ViewID]bool{},
		ViewRows:        map[lattice.ViewID]int64{},
	}
	for _, out := range outs {
		for name, sec := range out.phase {
			if sec > res.PhaseSeconds[name] {
				res.PhaseSeconds[name] = sec
			}
		}
		for v := range out.changed {
			res.Changed[v] = true
		}
	}
	// Case decisions are collective (identical on every processor).
	for c, n := range outs[0].cases {
		res.CaseCounts[c] = n
	}
	res.DeltaMergeSeconds = res.PhaseSeconds[PhaseDeltaMerge]
	for _, v := range sel {
		res.ViewRows[v] = core.ViewGlobalRows(m, v)
	}
	return res, nil
}

// discardStaged recovers to the pre-schedule cube after an aborted run:
// live views were never touched (the commit barrier gates every
// rename), so dropping the staging state the aborted processors left
// behind is the whole recovery, and it is free (metadata-only).
func discardStaged(m *cluster.Machine) {
	for r := 0; r < m.P(); r++ {
		disk := m.Proc(r).Disk()
		for _, f := range disk.Files() {
			if strings.HasPrefix(f, "ingest.") || strings.HasPrefix(f, "tmp.") {
				disk.Remove(f)
			}
		}
	}
}

// commit makes the staged slices of views live, for a batch and for an
// online view alike. All processors synchronize first: injected crashes
// fire at superstep entry and phase/epoch boundaries, so a crash
// anywhere in the schedule aborts every processor at or before this
// barrier and no live file is renamed until the whole machine has
// finished merging. The swap is metadata-only (uncharged); staged
// slices are row-form, so each is sealed as it goes live (a local
// charge, no collective) and the cube stays columnar.
func commit(p *cluster.Proc, views []lattice.ViewID) {
	cluster.Barrier(p)
	disk := p.Disk()
	for _, v := range views {
		if sf := stageFile(v); disk.Has(sf) {
			disk.Rename(sf, core.ViewFile(v))
			disk.Seal(core.ViewFile(v))
		}
	}
}

// ingestOnProc is the SPMD body of one batch.
func ingestOnProc(p *cluster.Proc, batch *record.Table, cfg Config, sel []lattice.ViewID, out *procOut) {
	d := cfg.D
	disk := p.Disk()
	p.SetOverlap(cfg.OverlapComm)
	phase := core.PhaseTimer(p, out.phase)

	// Stage this processor's contiguous share of the batch.
	done := phase(PhaseIngest)
	n := batch.Len()
	lo, hi := p.Rank()*n/p.P(), (p.Rank()+1)*n/p.P()
	disk.Put(BatchFile, batch.Sub(lo, hi))
	done()

	for i := 0; i < d; i++ {
		p.SetEpoch(i)
		partSel := lattice.PartitionSubset(i, d, sel)
		if len(partSel) == 0 {
			continue
		}
		done = phase(PhaseIngest)
		aligned, rootOrder := deltaBuildDim(p, cfg, i, partSel)
		done()

		done = phase(PhaseDeltaMerge)
		for _, v := range partSel {
			mergeDelta(p, cfg, v, aligned, rootOrder, out)
		}
		done()
	}

	p.SetPhase(PhaseDeltaMerge)
	commit(p, sel)
	disk.Remove(BatchFile)
}

// deltaBuildDim builds dimension i's sorted delta views from the local
// batch share: project + sort + aggregate the delta root, align it
// with the live root's slice boundaries, then run Pipesort over the
// retained (or derived) schedule tree. Returns whether alignment
// succeeded — i.e. the live root is materialized and non-empty — and
// the root order; aligned deltas let prefix views take the Case 1
// boundary merge.
func deltaBuildDim(p *cluster.Proc, cfg Config, i int, partSel []lattice.ViewID) (bool, lattice.Order) {
	d := cfg.D
	root := lattice.Root(i, d)
	rootOrder := lattice.Canonical(root)
	rootDelta := deltaFile(root)
	agg := sketch.Agg(cfg.Agg)

	// Local delta root: build Step 1a over the local batch share.
	core.LocalRoot(p, BatchFile, rootDelta, rootOrder, cfg.Cards, agg)

	// Boundary-aligned Adaptive–Sample–Sort: the live root's gathered
	// last keys stand in for sampled pivots, so every delta row lands
	// on the processor whose live slice covers its key range.
	ranges, aligned := mergepart.GatherRanges(p, mergepart.LastKey(p, core.ViewFile(root)), len(rootOrder))
	if aligned && p.P() > 1 {
		mergepart.RouteMergeAgg(p, rootDelta, ranges, agg)
	}

	// Pipesort over the build's schedule tree (reused, not re-planned);
	// snapshots and local-tree builds derive an equivalent tree from
	// the agreed materialization orders.
	tree := cfg.Trees[i]
	if tree == nil {
		tree = deltaTree(d, i, partSel, cfg.Orders)
	}
	core.ExecuteSchedule(p, tree, deltaFile, partSel, cfg.SampleCap, agg)
	return aligned, rootOrder
}

// mergeDelta merges view v's delta slice into its live slice, writing
// the result to the view's staging file. Views with no delta rows
// anywhere are skipped — their live slices (and any query-side
// indexes) stay untouched.
func mergeDelta(p *cluster.Proc, cfg Config, v lattice.ViewID, aligned bool, rootOrder lattice.Order, out *procOut) {
	disk := p.Disk()
	clk := p.Clock()
	agg := sketch.Agg(cfg.Agg)
	order := cfg.Orders[v]
	df := deltaFile(v)
	lf := core.ViewFile(v)
	sf := stageFile(v)

	total := cluster.AllReduce(p, max(disk.Len(df), 0), 8, func(a, b int) int { return a + b })
	if total == 0 {
		disk.Remove(df)
		return
	}
	out.changed[v] = true

	live, ok := disk.Get(lf) // charged: the live slice is merge input
	if !ok {
		live = record.New(len(order), 0)
	}

	if aligned && order.IsPrefixOf(rootOrder) {
		// Case 1: alignment makes the concatenation of the locally
		// merged slices globally sorted; only equal keys can face each
		// other across neighbor boundaries, and the boundary-row
		// exchange agglomerates them.
		delta := disk.MustTake(df)
		clk.AddCompute(costmodel.MergeOps(delta.Len()+live.Len(), 2))
		disk.Put(sf, record.MergeSortedAggregateAgg([]*record.Table{live, delta}, agg))
		mergepart.BoundaryAgglomerateAgg(p, sf, agg)
		out.cases[mergepart.CasePrefix]++
		return
	}

	// Case 2/3: route delta overlap runs to the owner of their live
	// key range, then two-way merge with the local live slice.
	var last []uint32
	if live.Len() > 0 {
		last = live.RowCopy(live.Len() - 1)
	}
	ranges, owned := mergepart.GatherRanges(p, last, len(order))
	if !owned {
		// Live view globally empty: the delta is the view. Distribute
		// it with the full sample sort (Case 3 machinery).
		disk.Put(sf, disk.MustTake(df))
		mergepart.Redistribute(p, sf, cfg.MergeGamma, agg)
		out.cases[mergepart.CaseGlobalSort]++
		return
	}

	mergepart.RouteMergeAgg(p, df, ranges, agg)
	delta := disk.MustTake(df)
	clk.AddCompute(costmodel.MergeOps(delta.Len()+live.Len(), 2))
	merged := record.MergeSortedAggregateAgg([]*record.Table{live, delta}, agg)
	disk.Put(sf, merged)

	// Case 2 keeps the live partitioning, so key ranges stay disjoint
	// across processors and no boundary exchange is needed. If the
	// merged view drifted past the balance threshold, redistribute
	// (Case 3).
	sizes := cluster.AllGather(p, merged.Len(), 8)
	if balance.Imbalance(sizes) > cfg.MergeGamma {
		mergepart.Redistribute(p, sf, cfg.MergeGamma, agg)
		out.cases[mergepart.CaseGlobalSort]++
		return
	}
	out.cases[mergepart.CaseOverlap]++
}

// deltaTree derives a schedule tree for dimension i from the agreed
// materialization orders when no build tree was retained (local-tree
// builds, reloaded snapshots). Views whose order is a prefix of the
// root order form the root's scan chain (longest prefix first); every
// other view hangs off the root as a sort edge in its live order. The
// result is deterministic and materializes each delta view in exactly
// its live order, which is all the merge needs.
func deltaTree(d, i int, partSel []lattice.ViewID, orders map[lattice.ViewID]lattice.Order) *lattice.Tree {
	root := lattice.Root(i, d)
	rootOrder := lattice.Canonical(root)
	tr := lattice.NewTree(d, root, rootOrder)
	var chain, sorts []lattice.ViewID
	for _, v := range partSel {
		if v == root {
			continue
		}
		if orders[v].IsPrefixOf(rootOrder) {
			chain = append(chain, v)
		} else {
			sorts = append(sorts, v)
		}
	}
	// Distinct prefix views have distinct lengths, so sorting by
	// descending length nests them into a single scan chain.
	for a := 1; a < len(chain); a++ {
		for b := a; b > 0 && len(orders[chain[b]]) > len(orders[chain[b-1]]); b-- {
			chain[b], chain[b-1] = chain[b-1], chain[b]
		}
	}
	parent := root
	for _, v := range chain {
		tr.AddChild(parent, v, orders[v], lattice.EdgeScan)
		parent = v
	}
	for _, v := range sorts {
		tr.AddChild(root, v, orders[v], lattice.EdgeSort)
	}
	return tr
}
