// Package samplesort implements Procedure 2 of the paper,
// Adaptive–Sample–Sort: parallel sorting by regular sampling (Li et
// al. [14]) with an adaptive rebalancing twist. One h-relation usually
// yields sorted and well-balanced data; the second "global shift"
// h-relation is performed only when the measured relative imbalance
// exceeds the threshold γ (1% for raw-data partitioning, 3% for merge
// re-sorts).
package samplesort

import (
	"sort"

	"repro/internal/balance"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/extsort"
	"repro/internal/record"
)

// Result reports what one Adaptive–Sample–Sort run did.
type Result struct {
	// ImbalanceBefore is I(y0..yp-1) measured after the first
	// h-relation.
	ImbalanceBefore float64
	// Shifted reports whether the global shift was required.
	Shifted bool
	// ImbalanceAfter is the imbalance of the final distribution.
	ImbalanceAfter float64
	// Rows is this processor's final local row count.
	Rows int
}

// keyBytes models the wire size of one pivot key.
func keyBytes(cols int) int { return record.DimBytes * cols }

// Sort globally sorts the named file (present on every processor's
// disk with identical schema) lexicographically over all columns,
// applying the global shift only if the post-exchange imbalance
// exceeds gamma. On return every processor's file holds its slice of
// the global order: all rows on Pj sort no later than all rows on
// Pj+1. Must be called by all processors of the machine (SPMD).
func Sort(p *cluster.Proc, file string, gamma float64) Result {
	return sortImpl(p, file, gamma, false, record.Agg{Op: record.OpSum})
}

// SortPresortedAgg is Sort for files already locally sorted (views being
// redistributed by Merge–Partitions Case 3); it skips the local external
// sort of Step 1 and agglomerates equal keys with agg during the p-way
// merge, so equal view keys arriving from different processors collapse
// in the same pass (holistic operators combine their sketches through
// the processor's combiner).
func SortPresortedAgg(p *cluster.Proc, file string, gamma float64, agg record.Agg) Result {
	return sortImpl(p, file, gamma, true, agg)
}

func sortImpl(p *cluster.Proc, file string, gamma float64, presorted bool, agg record.Agg) Result {
	disk := p.Disk()
	clk := p.Clock()
	np := p.P()

	// Step 1: local sort, then select p regularly spaced local pivots.
	if !presorted {
		extsort.Sort(disk, file)
	}
	local := disk.MustTake(file)
	n := local.Len()
	cols := local.D
	pivots := make([][]uint32, 0, np)
	for k := 0; k < np; k++ {
		r := k * n / np
		if r < n {
			pivots = append(pivots, local.RowCopy(r))
		}
	}
	gathered := cluster.Gather(p, 0, pivots, keyBytes(cols)*len(pivots))

	// Step 2: P0 sorts the <= p^2 local pivots and selects p-1 global
	// pivots at regularly spaced ranks with a half-stride offset
	// (the paper's rank kp + floor(p/2) pattern, generalized to
	// tolerate processors with fewer than p rows).
	var global [][]uint32
	if p.Rank() == 0 {
		var all [][]uint32
		for _, g := range gathered {
			all = append(all, g...)
		}
		sortKeys(all)
		clk.AddCompute(costmodel.SortOps(len(all)))
		if len(all) > 0 {
			for k := 1; k < np; k++ {
				r := k*len(all)/np + len(all)/(2*np)
				if r >= len(all) {
					r = len(all) - 1
				}
				global = append(global, all[r])
			}
		}
	}
	// The root's actual pivot count governs the charge (fewer than p-1
	// global pivots exist on degenerate/small inputs); non-roots learn
	// the posted size from the broadcast itself.
	global = cluster.Broadcast(p, 0, global, keyBytes(cols)*len(global))

	// Step 3: partition the locally sorted data by the global pivots.
	out := make([]*record.Table, np)
	if len(global) == 0 {
		// Degenerate: no data anywhere (or p == 1); keep rows local.
		for k := range out {
			out[k] = record.New(cols, 0)
		}
		out[p.Rank()] = local
	} else {
		bounds := make([]int, 0, np+1)
		bounds = append(bounds, 0)
		for _, g := range global {
			bounds = append(bounds, record.LowerBound(local, g))
		}
		bounds = append(bounds, n)
		for k := 0; k < np; k++ {
			lo, hi := bounds[k], bounds[k+1]
			if hi < lo {
				hi = lo
			}
			out[k] = local.Sub(lo, hi)
		}
	}

	// Step 4: the h-relation.
	in := cluster.AllToAllTables(p, out)

	// Step 5: p-way merge of the received sorted sequences.
	total := 0
	for _, t := range in {
		if t != nil {
			total += t.Len()
		}
	}
	clk.AddCompute(costmodel.MergeOps(total, np))
	var merged *record.Table
	if presorted {
		// View redistribution: collapse equal keys while merging.
		merged = record.MergeSortedAggregateAgg(in, agg)
	} else {
		merged = record.MergeSorted(in)
	}

	// Step 6: measure imbalance; shift only if above threshold.
	sizes := cluster.AllGather(p, merged.Len(), 8)
	res := Result{ImbalanceBefore: balance.Imbalance(sizes)}
	if res.ImbalanceBefore > gamma {
		merged = globalShift(p, merged, sizes)
		res.Shifted = true
		sizes = cluster.AllGather(p, merged.Len(), 8)
	}
	res.ImbalanceAfter = balance.Imbalance(sizes)
	res.Rows = merged.Len()
	disk.Put(file, merged)
	return res
}

// globalShift rebalances the globally sorted distribution so every
// processor holds a contiguous slice of size within one row of n/p,
// using a single h-relation. sizes[j] is processor j's current row
// count.
func globalShift(p *cluster.Proc, local *record.Table, sizes []int) *record.Table {
	np := p.P()
	n := 0
	offset := 0
	for j, y := range sizes {
		if j < p.Rank() {
			offset += y
		}
		n += y
	}
	targets := balance.Targets(n, np)
	out := make([]*record.Table, np)
	for k := 0; k < np; k++ {
		lo := targets[k] - offset
		hi := targets[k+1] - offset
		if lo < 0 {
			lo = 0
		}
		if lo > local.Len() {
			lo = local.Len()
		}
		if hi > local.Len() {
			hi = local.Len()
		}
		if hi < lo {
			hi = lo
		}
		out[k] = local.Sub(lo, hi)
	}
	in := cluster.AllToAllTables(p, out)
	// Received segments are contiguous global ranges ordered by source
	// rank; concatenation preserves the global order.
	merged := record.New(local.D, 0)
	for _, t := range in {
		if t != nil {
			merged.AppendTable(t)
		}
	}
	p.Clock().AddCompute(costmodel.ScanOps(merged.Len()))
	return merged
}

// sortKeys sorts pivot keys lexicographically. Comparison-sorting the
// up to p^2 keys matches the SortOps(n log n) charge in Step 2.
func sortKeys(keys [][]uint32) {
	sort.Slice(keys, func(a, b int) bool {
		return record.CompareKeys(keys[a], keys[b]) < 0
	})
}
