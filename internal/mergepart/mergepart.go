// Package mergepart implements Procedure 3 of the paper,
// Merge–Partitions: after every processor has built its local
// Di-partition, the p copies of each view are merged into one view
// evenly distributed over the processors. Three cases (Figure 4):
//
//   - Case 1 (prefix views): the view's materialization order is a
//     prefix of the global sort order, so the concatenation across
//     processors is already globally sorted; only boundary rows can
//     share keys, and a one-row boundary exchange agglomerates them.
//   - Case 2 (non-prefix, balanced): processors exchange the "overlap"
//     runs falling into each other's key ranges, then merge and
//     agglomerate locally. The key ranges come from each processor's
//     last key; overlap sizes are estimated with the online spaced
//     samples of §2.4 so no view is re-scanned.
//   - Case 3 (non-prefix, imbalance > γ): the view is redistributed
//     with a full Adaptive–Sample–Sort (Procedure 2, γ = 3%), locally
//     agglomerated, and boundary-merged.
//
// In local-schedule-tree mode (§2.3/§4.2), processors may have
// materialized a view in different attribute orders; MergeViewAgg first
// re-sorts any local copy whose order differs from the agreed target
// order — the expensive step that makes local trees lose to global
// trees.
package mergepart

import (
	"fmt"

	"repro/internal/balance"
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/extsort"
	"repro/internal/lattice"
	"repro/internal/record"
	"repro/internal/sample"
	"repro/internal/samplesort"
)

// Case identifies the merge strategy applied to a view.
type Case int

const (
	// CasePrefix is Case 1: boundary agglomeration only.
	CasePrefix Case = iota + 1
	// CaseOverlap is Case 2: overlap routing plus local merges.
	CaseOverlap
	// CaseGlobalSort is Case 3: full adaptive sample sort.
	CaseGlobalSort
)

func (c Case) String() string {
	switch c {
	case CasePrefix:
		return "case1-prefix"
	case CaseOverlap:
		return "case2-overlap"
	case CaseGlobalSort:
		return "case3-globalsort"
	}
	return fmt.Sprintf("Case(%d)", int(c))
}

// ViewResult reports how one view was merged on this processor.
type ViewResult struct {
	View      lattice.ViewID
	Case      Case
	Resorted  bool    // true if the local copy had to be re-sorted first
	Rows      int     // final local row count
	Imbalance float64 // estimated I(|v'0..v'p-1|) behind the 2/3 decision
}

// MergeViewAgg merges one view across all processors (SPMD: every
// processor calls it with the same view, targetOrder, globalOrder and
// gamma). file names the local copy on each disk, sorted in
// localOrder with locally distinct keys. After return, file holds this
// processor's slice of the merged view, sorted in targetOrder, with
// globally distinct keys across processors. Every cross-processor
// agglomeration combines through agg — for holistic operators, in
// sketch accumulators of its own — and seals before rows ship or land
// on disk.
func MergeViewAgg(p *cluster.Proc, file string, view lattice.ViewID, localOrder, targetOrder, globalOrder lattice.Order, gamma float64, agg record.Agg) ViewResult {
	res := ViewResult{View: view}
	if !localOrder.Equal(targetOrder) {
		resortLocal(p, file, localOrder, targetOrder)
		res.Resorted = true
	}

	if p.P() == 1 {
		// Nothing to merge: the local copy is the global view.
		if targetOrder.IsPrefixOf(globalOrder) {
			res.Case = CasePrefix
		} else {
			res.Case = CaseOverlap
		}
		res.Rows = p.Disk().Len(file)
		return res
	}

	if targetOrder.IsPrefixOf(globalOrder) {
		res.Case = CasePrefix
		res.Rows = BoundaryAgglomerateAgg(p, file, agg)
		return res
	}

	// Non-prefix: estimate the per-range totals |v'j| from samples.
	ranges, _ := GatherRanges(p, LastKey(p, file), len(targetOrder))
	est := estimateContributions(p, file, ranges)
	totals := cluster.AllReduce(p, est, 8*p.P(), addVectors)
	res.Imbalance = balance.Imbalance(totals)

	if res.Imbalance <= gamma {
		res.Case = CaseOverlap
		res.Rows = RouteMergeAgg(p, file, ranges, agg)
		return res
	}

	res.Case = CaseGlobalSort
	res.Rows = Redistribute(p, file, gamma, agg)
	return res
}

// Redistribute is the Case 3 step every schedule shares: the locally
// sorted, locally duplicate-free copies of file are globally sorted and
// rebalanced with a presorted Adaptive–Sample–Sort, then equal keys
// left facing each other across processor boundaries are agglomerated.
// One processor already holds the global order. Returns the final local
// row count.
func Redistribute(p *cluster.Proc, file string, gamma float64, agg record.Agg) int {
	if p.P() == 1 {
		return p.Disk().Len(file)
	}
	samplesort.SortPresortedAgg(p, file, gamma, agg)
	return BoundaryAgglomerateAgg(p, file, agg)
}

// resortLocal rewrites the local view copy from localOrder into
// targetOrder (projection + external sort), refreshing the sample.
func resortLocal(p *cluster.Proc, file string, localOrder, targetOrder lattice.Order) {
	extsort.ProjectSort(p.Disk(), file, file, targetOrder.ProjectionFrom(localOrder), nil)
	refreshSample(p, file)
}

// refreshSample rebuilds the file's spaced sample from its current
// contents (used after rewrites; the read is charged).
func refreshSample(p *cluster.Proc, file string) {
	disk := p.Disk()
	t := disk.MustGet(file)
	sm := sample.NewOnline(100 * p.P()) // the paper's a = 100p
	sm.AddTable(t)
	disk.SetMeta(file, sm)
}

// LastKey reads this processor's final row key, or nil for an empty
// view copy. Exported for the incremental-ingest subsystem, which
// aligns delta slices against the live view's existing boundaries.
func LastKey(p *cluster.Proc, file string) []uint32 {
	disk := p.Disk()
	n := disk.Len(file)
	if n <= 0 {
		return nil
	}
	t := disk.ReadRange(file, n-1, n)
	return t.RowCopy(0)
}

// KeyRange is one processor's merge range (Lo exclusive, Hi inclusive;
// nil bounds are infinite). Empty owners have Owner == false.
type KeyRange struct {
	Owner  bool
	Lo, Hi []uint32
}

// GatherRanges agrees on the per-processor merge ranges from every
// processor's last key (nil for an empty slice; cols columns wide):
// processor j owns (last of previous non-empty, last of j], with the
// final non-empty processor's range extended to +inf. It also reports
// whether any processor owns a range at all.
func GatherRanges(p *cluster.Proc, last []uint32, cols int) ([]KeyRange, bool) {
	lasts := cluster.AllGather(p, last, record.DimBytes*cols)
	ranges := make([]KeyRange, len(lasts))
	var prev []uint32
	lastOwner := -1
	for j, l := range lasts {
		if l == nil {
			continue
		}
		ranges[j] = KeyRange{Owner: true, Lo: prev, Hi: l}
		prev = l
		lastOwner = j
	}
	if lastOwner >= 0 {
		ranges[lastOwner].Hi = nil // extend to +inf
	}
	return ranges, lastOwner >= 0
}

// estimateContributions estimates, from this processor's spaced
// sample, how many of its rows fall into each processor's range.
func estimateContributions(p *cluster.Proc, file string, ranges []KeyRange) []int {
	disk := p.Disk()
	est := make([]int, p.P())
	n := disk.Len(file)
	if n <= 0 {
		return est
	}
	sm, ok := disk.Meta(file).(*sample.Online)
	if !ok {
		// No sample captured (e.g. a hand-placed file in tests): build
		// one now; the full read is charged, which is exactly the cost
		// the paper's online sampling avoids.
		refreshSample(p, file)
		sm = disk.Meta(file).(*sample.Online)
	}
	for j, r := range ranges {
		if r.Owner {
			est[j] = sm.EstimateRange(r.Lo, r.Hi)
		}
	}
	return est
}

func addVectors(a, b []int) []int {
	out := make([]int, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// RouteMergeAgg is Case 2: route every local row of file to its
// key-range owner, then merge and agglomerate the received sorted runs.
// When no rows cross processor boundaries the file is left untouched
// (no rewrite). Exported for incremental ingest, which reuses it both
// to align delta roots with the live root's slice boundaries and to
// exchange delta overlap runs before two-way merging into non-prefix
// views.
func RouteMergeAgg(p *cluster.Proc, file string, ranges []KeyRange, agg record.Agg) int {
	disk := p.Disk()
	t := disk.MustGet(file) // read to route; not yet rewritten
	np := p.P()
	me := p.Rank()
	out := make([]*record.Table, np)
	var kept *record.Table
	lo := 0
	sent := 0
	for j := 0; j < np; j++ {
		if !ranges[j].Owner {
			continue
		}
		hi := t.Len()
		if ranges[j].Hi != nil {
			hi = record.UpperBound(t, ranges[j].Hi)
		}
		if hi < lo {
			hi = lo
		}
		// Key ranges travel as read-only windows: t is not mutated, and
		// the merge below writes a fresh table.
		if j == me {
			kept = t.Window(lo, hi)
		} else if hi > lo {
			out[j] = t.Window(lo, hi)
			sent += hi - lo
		}
		lo = hi
	}
	in := cluster.AllToAllTables(p, out)
	received := 0
	for j, tb := range in {
		if j != me && tb != nil {
			received += tb.Len()
		}
	}
	if sent == 0 && received == 0 {
		// All rows already in place; the on-disk copy is final.
		return t.Len()
	}
	if kept == nil {
		kept = record.New(t.D, 0)
	}
	in[me] = kept
	total := received + kept.Len()
	p.Clock().AddCompute(costmodel.MergeOps(total, np))
	merged := record.MergeSortedAggregateAgg(in, agg)
	disk.Remove(file)
	disk.Put(file, merged)
	return merged.Len()
}

// boundaryInfo is the per-processor digest exchanged by the boundary
// cascade.
type boundaryInfo struct {
	Len       int
	First     []uint32
	Last      []uint32
	FirstMeas record.Run
}

// BoundaryAgglomerateAgg merges equal keys across processor boundaries
// for a view whose cross-processor concatenation is globally sorted
// and whose local copies are duplicate-free. It iterates the paper's
// first-item exchange until a fixpoint, which also handles the corner
// case of a single key spanning more than two processors. Only
// boundary rows are read and touched: Case 1 costs point I/O, not a
// view rewrite. Returns the final local row count. Every measure the
// cascade combines is sealed before it ships in a boundary digest or
// lands in the view file, and digests carrying sketch blobs charge
// the sketch payload bytes. Exported for the incremental-ingest delta
// merge, which reuses the same cascade after merging delta slices into
// prefix views.
func BoundaryAgglomerateAgg(p *cluster.Proc, file string, agg record.Agg) int {
	disk := p.Disk()
	np := p.P()
	n := disk.Len(file)
	cols := disk.Cols(file)
	if np == 1 {
		return n
	}
	front := 0
	var firstKey, lastKey []uint32
	var firstMeas, pending record.Run
	hasPending := false
	readFront := func() {
		if front < n {
			row := disk.ReadRange(file, front, front+1)
			firstKey = row.RowCopy(0)
			firstMeas = agg.Start(row, 0)
		} else {
			firstKey = nil
		}
	}
	if n > 0 {
		readFront()
		row := disk.ReadRange(file, n-1, n)
		lastKey = row.RowCopy(0)
	}
	infoBytes := 8 + 8 + 2*record.DimBytes*cols
	for {
		my := boundaryInfo{Len: n - front}
		if my.Len > 0 {
			my.First = firstKey
			my.Last = lastKey
			my.FirstMeas = firstMeas
			if front == n-1 && hasPending {
				// Single remaining row: any measure absorbed from the
				// right lives in this row and must travel with it. The
				// combine lands only in the shipped digest — local
				// pending state is untouched in case the row stays.
				agg.AddWord(&my.FirstMeas, pending.Meas, pending.Blob)
				my.FirstMeas.Seal()
			}
		}
		// A holistic measure ships its sketch blob with the digest;
		// charge it on top of the fixed digest layout.
		infos := cluster.AllGather(p, my, infoBytes+len(my.FirstMeas.Blob))

		// Deterministic matching, identical on every processor: each
		// non-empty processor j whose first key equals the last key of
		// its nearest non-empty predecessor i sends that first item
		// left; i absorbs its measure. A predecessor that is itself
		// dropping its only row cannot absorb this round.
		dropFirst := make([]bool, np)
		absorb := make([]record.Run, np)
		hasAbsorb := make([]bool, np)
		any := false
		for j := 1; j < np; j++ {
			if infos[j].Len == 0 {
				continue
			}
			i := j - 1
			for i >= 0 && infos[i].Len == 0 {
				i--
			}
			if i < 0 {
				continue
			}
			if record.CompareKeys(infos[i].Last, infos[j].First) != 0 {
				continue
			}
			if dropFirst[i] && infos[i].Len == 1 {
				continue
			}
			dropFirst[j] = true
			// At most one j absorbs into a given i per round (the next
			// candidate's nearest non-empty predecessor is j itself).
			absorb[i] = infos[j].FirstMeas
			hasAbsorb[i] = true
			any = true
		}
		if !any {
			break
		}
		me := p.Rank()
		if hasAbsorb[me] {
			if hasPending {
				agg.AddWord(&pending, absorb[me].Meas, absorb[me].Blob)
				pending.Seal()
			} else {
				pending = absorb[me]
				hasPending = true
			}
		}
		if dropFirst[me] {
			front++
			readFront()
		}
	}
	if front > 0 || hasPending {
		f, d, hp := front, pending, hasPending
		disk.Mutate(file, record.RowBytes(cols), func(t *record.Table) *record.Table {
			if hp {
				last := t.Len() - 1
				run := agg.Start(t, last)
				agg.AddWord(&run, d.Meas, d.Blob)
				t.SetRun(last, &run)
			}
			if f > 0 {
				// The disk owns t and drops it for the window.
				t = t.Window(f, t.Len())
			}
			return t
		})
	}
	return n - front
}
