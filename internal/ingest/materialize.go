package ingest

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/mergepart"
	"repro/internal/record"
	"repro/internal/sketch"
)

// PhaseAdvise covers online view materialization and retirement (the
// advisor's build/drop work), so its simulated cost is separable from
// builds, ingest batches, and queries in the phase accounting.
const PhaseAdvise = "advise"

// MaterializeOptions parameterizes one online view build.
type MaterializeOptions struct {
	// Src is the materialized ancestor to aggregate from (a strict
	// superset of the target view, normally the smallest one) and
	// SrcOrder its live attribute order.
	Src      lattice.ViewID
	SrcOrder lattice.Order
	// View is the target and Order the attribute order to materialize
	// it in (Order.View() must equal View).
	View  lattice.ViewID
	Order lattice.Order
	// MergeGamma is the sample-sort rebalance threshold (default 3%).
	MergeGamma float64
	// Agg is the aggregate operator (default record.OpSum).
	Agg record.AggOp
}

// MaterializeResult reports what one online materialization cost.
type MaterializeResult struct {
	// Rows is the new view's global row count.
	Rows int64
	// SrcRows is the number of ancestor rows scanned (globally).
	SrcRows int64
	// SimSeconds is the simulated makespan added, all under the
	// "advise" phase; BytesMoved is the redistribution volume.
	SimSeconds float64
	BytesMoved int64
}

// MaterializeView builds one view online from a materialized ancestor,
// without touching the raw fact table or any other view. It is
// Procedure 1 Steps 2–3 with the ancestor in the role of the partition
// root: a one-edge schedule tree (a scan edge when the target's order
// is a prefix of the ancestor's live order, a sort edge otherwise) is
// executed from each processor's ancestor slice into a stage file, and
// Merge–Partitions places the view across the processors — Case 1 for
// prefix targets, Case 2 for balanced ones, the Case 3 redistribution
// only past the merge threshold — so the new view is globally sorted
// and range-partitioned like every build-time view. The stage slices
// go live (and are sealed) only after the commit barrier, so an error
// leaves the cube untouched. Call it under the engine's Maintain drain
// barrier; it runs supersteps on the machine.
func MaterializeView(m *cluster.Machine, opts MaterializeOptions) (MaterializeResult, error) {
	if opts.MergeGamma == 0 {
		opts.MergeGamma = 0.03
	}
	if opts.MergeGamma <= 0 || opts.MergeGamma >= 1 {
		return MaterializeResult{}, fmt.Errorf("ingest: merge gamma %v out of range (0,1)", opts.MergeGamma)
	}
	if opts.Order.View() != opts.View {
		return MaterializeResult{}, fmt.Errorf("ingest: order %v does not cover view %v", opts.Order, opts.View)
	}
	if opts.SrcOrder.View() != opts.Src {
		return MaterializeResult{}, fmt.Errorf("ingest: source order %v does not cover view %v", opts.SrcOrder, opts.Src)
	}
	if !opts.View.SubsetOf(opts.Src) || opts.View == opts.Src {
		return MaterializeResult{}, fmt.Errorf("ingest: view %v is not a strict subset of source %v", opts.View, opts.Src)
	}

	dims := opts.Src.Dims() // non-empty: Src strictly contains View
	tree := lattice.NewTree(dims[len(dims)-1]+1, opts.Src, opts.SrcOrder)
	edge := lattice.EdgeSort
	if opts.Order.IsPrefixOf(opts.SrcOrder) {
		edge = lattice.EdgeScan
	}
	tree.AddChild(opts.Src, opts.View, opts.Order, edge)
	fileOf := func(v lattice.ViewID) string {
		if v == opts.View {
			return stageFile(v)
		}
		return core.ViewFile(v)
	}

	t0 := m.SimSeconds()
	bytes0 := m.Stats().BytesMoved
	err := m.Run(func(p *cluster.Proc) {
		p.SetPhase(PhaseAdvise)
		agg := sketch.Agg(opts.Agg)
		if p.Disk().Has(fileOf(opts.Src)) {
			core.ExecuteSchedule(p, tree, fileOf, tree.Views(), 0, agg)
		} else {
			// No ancestor slice here: this processor's local copy is empty.
			p.Disk().Put(fileOf(opts.View), record.New(len(opts.Order), 0))
		}
		mergepart.MergeViewAgg(p, fileOf(opts.View), opts.View, opts.Order, opts.Order, opts.SrcOrder, opts.MergeGamma, agg)
		commit(p, []lattice.ViewID{opts.View})
	})
	if err != nil {
		discardStaged(m)
		return MaterializeResult{}, err
	}
	return MaterializeResult{
		Rows:       core.ViewGlobalRows(m, opts.View),
		SrcRows:    core.ViewGlobalRows(m, opts.Src),
		SimSeconds: m.SimSeconds() - t0,
		BytesMoved: m.Stats().BytesMoved - bytes0,
	}, nil
}

// RetireView deletes a view's slices on every processor. It is
// metadata-only (simulated deletes are free, like every Remove in the
// build) and must run under the engine's Maintain drain barrier after
// the view is removed from planning, so no in-flight query holds it.
func RetireView(m *cluster.Machine, v lattice.ViewID) {
	file := core.ViewFile(v)
	for r := 0; r < m.P(); r++ {
		m.Proc(r).Disk().Remove(file)
	}
}
