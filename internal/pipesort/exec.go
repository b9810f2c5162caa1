package pipesort

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/extsort"
	"repro/internal/lattice"
	"repro/internal/record"
	"repro/internal/sample"
	"repro/internal/simdisk"
)

// Options configures execution.
type Options struct {
	// SampleCap, when >= 2, attaches an online spaced sample (§2.4,
	// a = 100p in the paper) to every materialized view file as disk
	// metadata, built while the view is written. Merge–Partitions uses
	// it to estimate overlap sizes without re-scanning views.
	SampleCap int
	// Op is the aggregate operator (default record.OpSum).
	Op record.AggOp
	// State is this processor's sketch-state combiner, required when Op
	// is holistic: group accumulators then live in the sketch store and
	// flushed rows carry sealed handles.
	State record.StateCombiner
}

// Stats summarizes one execution of a schedule tree.
type Stats struct {
	Sorts       int   // sort edges executed (each an external sort)
	Pipelines   int   // pipelined aggregation passes
	RowsRead    int64 // rows streamed through pipelines
	RowsEmitted int64 // rows written across all materialized views
}

// ExecuteOpts materializes every view of the schedule tree on disk.
//
// The root's data must already be stored under fileOf(root view),
// sorted in the root's attribute order and duplicate-free (the
// Di-root||j produced by Procedure 1 Step 1c, the aggregated raw data
// for the sequential baseline, or a live ancestor slice for an online
// view). Each remaining view v of the tree is written to fileOf(v),
// sorted in v's attribute order with columns following that order.
func ExecuteOpts(disk *simdisk.Disk, tree *lattice.Tree, fileOf func(lattice.ViewID) string, opts Options) Stats {
	if !disk.Has(fileOf(tree.Root.View)) {
		panic(fmt.Sprintf("pipesort: root input %q missing", fileOf(tree.Root.View)))
	}
	var st Stats

	// The root's scan chain is aggregated in one pass over the root
	// file; every sort edge projects + externally sorts its parent's
	// file and aggregates that pass into the child's whole scan chain.
	var handleSortDescendants func(head *lattice.Node)
	handleSortDescendants = func(head *lattice.Node) {
		for _, m := range lattice.ScanChain(head) {
			for _, w := range m.Children {
				if w.Edge != lattice.EdgeSort {
					continue
				}
				tmp := fmt.Sprintf("tmp.sort.%s", w.View)
				extsort.ProjectSort(disk, fileOf(m.View), tmp, w.Order.ProjectionFrom(m.Order), nil)
				sorted := disk.MustTake(tmp)
				st.Sorts++
				emitChain(disk, sorted, lattice.ScanChain(w), true, fileOf, opts, &st)
				handleSortDescendants(w)
			}
		}
	}

	rootChain := lattice.ScanChain(tree.Root)
	if len(rootChain) > 1 {
		src := disk.MustGet(fileOf(tree.Root.View))
		emitChain(disk, src, rootChain, false, fileOf, opts, &st)
	}
	handleSortDescendants(tree.Root)
	return st
}

// emitChain performs one pipelined aggregation pass over src (sorted by
// chain[0].Order; its columns are exactly chain[0].Order) and writes
// the resulting view files. When includeHead is true the head view
// itself is also aggregated and written (src may then contain duplicate
// keys, as it is a freshly sorted projection); otherwise only
// chain[1:] are produced.
func emitChain(disk *simdisk.Disk, src *record.Table, chain []*lattice.Node, includeHead bool, fileOf func(lattice.ViewID) string, opts Options, st *Stats) {
	members := chain
	if !includeHead {
		members = chain[1:]
	}
	if len(members) == 0 {
		return
	}
	st.Pipelines++
	st.RowsRead += int64(src.Len())

	lens := make([]int, len(members))
	outs := make([]*record.Table, len(members))
	for i, m := range members {
		lens[i] = len(m.Order)
		outs[i] = record.New(lens[i], 0)
	}
	pipelineAggregate(src, lens, outs, record.Agg{Op: opts.Op, State: opts.State})

	emitted := 0
	for i, m := range members {
		emitted += outs[i].Len()
		disk.Put(fileOf(m.View), outs[i])
		if opts.SampleCap >= 2 {
			// The paper builds this sample in the array A[1..a] while
			// the view streams to disk; building it from the in-memory
			// buffer here is the same work at the same point in time.
			sm := sample.NewOnline(opts.SampleCap)
			sm.AddTable(outs[i])
			disk.SetMeta(fileOf(m.View), sm)
		}
	}
	st.RowsEmitted += int64(emitted)
	disk.Clock().AddCompute(costmodel.ScanOps(src.Len()) + costmodel.ScanOps(emitted))
}

// pipelineAggregate streams src (sorted lexicographically over all its
// columns) once, simultaneously aggregating at every prefix length in
// lens (each <= src.D), appending results to the corresponding outs
// table. This is the Pipesort pipeline: one scan computes every view
// in a scan chain.
func pipelineAggregate(src *record.Table, lens []int, outs []*record.Table, agg record.Agg) {
	n := src.Len()
	if n == 0 {
		return
	}
	k := len(lens)
	groupStart := make([]int, k)
	accs := make([]int64, k)
	fresh := make([]bool, k)
	combined := make([]bool, k)
	for i := 0; i < k; i++ {
		accs[i] = src.Meas(0)
	}
	maxLen := 0
	for _, l := range lens {
		if l > maxLen {
			maxLen = l
		}
	}
	flush := func(i, row int) {
		gs := groupStart[i]
		if combined[i] {
			// Seal combined accumulators on emit: flushed rows may be
			// stored, shipped, or merged downstream.
			accs[i] = agg.Seal(accs[i])
			combined[i] = false
		}
		outs[i].Append(src.Row(gs)[:lens[i]], accs[i])
		groupStart[i] = row
		fresh[i] = true
	}
	for r := 1; r < n; r++ {
		// First column (within the deepest prefix) where row r differs
		// from row r-1; levels whose prefix includes that column close
		// their group.
		diff := maxLen
		for c := 0; c < maxLen; c++ {
			if src.Dim(r-1, c) != src.Dim(r, c) {
				diff = c
				break
			}
		}
		m := src.Meas(r)
		for i := 0; i < k; i++ {
			if lens[i] > diff {
				flush(i, r)
			}
			if fresh[i] {
				accs[i] = m
				fresh[i] = false
			} else {
				accs[i] = agg.Combine(accs[i], m)
				combined[i] = true
			}
		}
	}
	for i := 0; i < k; i++ {
		flush(i, n)
	}
}
