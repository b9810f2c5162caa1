package core

// The stage functions every materialization schedule runs. The initial
// build (buildDim), the delta build and merge (internal/ingest), an
// online view (ingest.MaterializeView) and crash recovery
// (recoverOnProc) differ only in which of these — plus
// extsort.ProjectSort, mergepart.MergeViewAgg and
// mergepart.Redistribute — they run, on which files, in what order.

import (
	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/extsort"
	"repro/internal/lattice"
	"repro/internal/pipesort"
	"repro/internal/record"
	"repro/internal/sketch"
)

// ChargeSketchPayloads is the prologue of every schedule: on a holistic
// cube sketch payloads ride the h-relations with the rows that carry
// their handles, so every bulk exchange charges their serialized size
// on top of the row bytes.
func ChargeSketchPayloads(m *cluster.Machine, op record.AggOp, st *sketch.Store) {
	if sz := st.Rank(0).Agg(op); sz.State != nil {
		m.SetTableSizer(sz.TableStateBytes)
	}
}

// PhaseTimer returns a schedule's phase bracket: phase(name) labels the
// processor's communication and starts timing, the func it returns
// adds the elapsed simulated seconds to acc[name] — after settling
// in-flight overlapped communication, so its residual is attributed to
// the phase that posted it.
func PhaseTimer(p *cluster.Proc, acc map[string]float64) func(name string) func() {
	clk := p.Clock()
	return func(name string) func() {
		p.SetPhase(name)
		start := clk.Seconds()
		return func() {
			clk.SettleComm()
			acc[name] += clk.Seconds() - start
		}
	}
}

// LocalRoot is Procedure 1 Step 1a on one processor: the local share
// src is projected onto the partition root's order, sorted and scanned
// into dst with duplicate keys collapsed. cards, when it covers src's
// columns, supplies the external sort's key plan.
func LocalRoot(p *cluster.Proc, src, dst string, order lattice.Order, cards []int, agg record.Agg) {
	disk := p.Disk()
	var kp *record.KeyPlan
	if len(cards) == disk.Cols(src) {
		pc := make([]int, len(order))
		for j, col := range order {
			pc[j] = cards[col]
		}
		plan := record.PlanKeyFromCards(pc)
		kp = &plan
	}
	extsort.ProjectSort(disk, src, dst, []int(order), kp)
	LocalAggregate(p, dst, agg)
}

// LocalAggregate rewrites a sorted file with adjacent duplicate keys
// collapsed (the "sequential scan" halves of Steps 1a and 1c). The
// output is sized from a run count, so it is allocated once.
func LocalAggregate(p *cluster.Proc, file string, agg record.Agg) {
	disk := p.Disk()
	t := disk.MustTake(file)
	p.Clock().AddCompute(costmodel.ScanOps(t.Len()))
	out := record.New(t.D, record.CountRuns(t, t.D))
	record.AggregateSortedAggInto(t, t.D, out, agg)
	disk.Put(file, out)
}

// ExecuteSchedule is Step 2 on one processor: Pipesort materializes
// every view of the schedule tree from the root's file, attaching the
// §2.4 spaced sample (a = 100p unless sampleCap overrides it) that
// Merge–Partitions estimates overlaps from; then the tree's files
// outside keep — intermediates a partial plan built only to cheapen
// descendants — are dropped.
func ExecuteSchedule(p *cluster.Proc, tree *lattice.Tree, fileOf func(lattice.ViewID) string, keep []lattice.ViewID, sampleCap int, agg record.Agg) {
	if sampleCap == 0 {
		sampleCap = 100 * p.P()
	}
	disk := p.Disk()
	pipesort.ExecuteOpts(disk, tree, fileOf, pipesort.Options{SampleCap: sampleCap, Op: agg.Op, State: agg.State})
	kept := make(map[lattice.ViewID]bool, len(keep))
	for _, v := range keep {
		kept[v] = true
	}
	tree.Walk(func(n *lattice.Node) {
		if !kept[n.View] {
			disk.Remove(fileOf(n.View))
		}
	})
}
