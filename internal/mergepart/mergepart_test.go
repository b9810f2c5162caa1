package mergepart

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/lattice"
	"repro/internal/record"
)

// runMergeView distributes parts (already in each processor's
// localOrder layout, locally sorted and duplicate-free), merges, and
// returns the final parts plus per-processor results.
func runMergeView(t *testing.T, parts []*record.Table, view lattice.ViewID, localOrders []lattice.Order, targetOrder, globalOrder lattice.Order, gamma float64) ([]*record.Table, []ViewResult) {
	t.Helper()
	p := len(parts)
	m := cluster.New(p, costmodel.Default())
	results := make([]ViewResult, p)
	for i, tb := range parts {
		m.Proc(i).Disk().Put("v", tb)
	}
	m.Run(func(pr *cluster.Proc) {
		results[pr.Rank()] = MergeViewAgg(pr, "v", view, localOrders[pr.Rank()], targetOrder, globalOrder, gamma, record.Agg{Op: record.OpSum})
	})
	out := make([]*record.Table, p)
	for i := 0; i < p; i++ {
		out[i] = m.Proc(i).Disk().MustGet("v")
	}
	return out, results
}

// checkMerged verifies the merged distribution against the aggregated
// union of the inputs (all expressed in target layout).
func checkMerged(t *testing.T, out []*record.Table, inputsInTarget []*record.Table) {
	t.Helper()
	union := record.New(inputsInTarget[0].D, 0)
	for _, tb := range inputsInTarget {
		union.AppendTable(tb)
	}
	want := record.SortAggregateAgg(union, record.Agg{Op: record.OpSum})
	concat := record.New(want.D, 0)
	for i, tb := range out {
		if !tb.IsSorted() {
			t.Fatalf("part %d not sorted", i)
		}
		for r := 1; r < tb.Len(); r++ {
			if tb.Compare(r-1, r, tb.D) == 0 {
				t.Fatalf("part %d has local duplicates", i)
			}
		}
		if i > 0 && out[i-1].Len() > 0 && tb.Len() > 0 {
			c := record.CompareTables(out[i-1], out[i-1].Len()-1, tb, 0, tb.D)
			if c >= 0 {
				t.Fatalf("parts %d/%d overlap or out of order", i-1, i)
			}
		}
		concat.AppendTable(tb)
	}
	if !record.Equal(concat, want) {
		t.Fatalf("merged rows differ from ground truth:\ngot  %v\nwant %v", concat, want)
	}
}

func mustParse(s string) lattice.ViewID {
	v, err := lattice.ParseView(s)
	if err != nil {
		panic(err)
	}
	return v
}

func sameOrders(p int, o lattice.Order) []lattice.Order {
	out := make([]lattice.Order, p)
	for i := range out {
		out[i] = o
	}
	return out
}

func TestCase1PrefixBoundaryMerge(t *testing.T) {
	// Global order ABC; view AB is a prefix view. Keys globally sorted
	// across 3 processors with a duplicate key at each boundary.
	ab := mustParse("AB")
	order := lattice.Order{0, 1}
	global := lattice.Order{0, 1, 2}
	parts := []*record.Table{
		record.FromRows(2, [][]uint32{{1, 1}, {2, 2}}, []int64{5, 7}),
		record.FromRows(2, [][]uint32{{2, 2}, {3, 3}}, []int64{1, 2}),
		record.FromRows(2, [][]uint32{{3, 3}, {4, 4}}, []int64{3, 4}),
	}
	inputs := []*record.Table{parts[0].Clone(), parts[1].Clone(), parts[2].Clone()}
	out, res := runMergeView(t, parts, ab, sameOrders(3, order), order, global, 0.03)
	for _, r := range res {
		if r.Case != CasePrefix {
			t.Fatalf("case = %v, want prefix", r.Case)
		}
		if r.Resorted {
			t.Fatal("no resort expected")
		}
	}
	checkMerged(t, out, inputs)
	// Boundary sums: key (2,2) = 8, key (3,3) = 5.
	if out[0].Len() != 2 || out[0].Meas(1) != 8 {
		t.Fatalf("boundary merge wrong: %v", out[0])
	}
}

func TestCase1KeySpanningManyProcessors(t *testing.T) {
	// One key occupies four consecutive processors; the cascade must
	// collapse it fully (the literal one-shot exchange of the paper's
	// prose would leave residue).
	v := mustParse("A")
	order := lattice.Order{0}
	global := lattice.Order{0, 1}
	parts := []*record.Table{
		record.FromRows(1, [][]uint32{{5}}, []int64{1}),
		record.FromRows(1, [][]uint32{{5}}, []int64{2}),
		record.FromRows(1, [][]uint32{{5}}, []int64{3}),
		record.FromRows(1, [][]uint32{{5}, {6}}, []int64{4, 9}),
	}
	inputs := make([]*record.Table, len(parts))
	for i, p := range parts {
		inputs[i] = p.Clone()
	}
	out, _ := runMergeView(t, parts, v, sameOrders(4, order), order, global, 0.03)
	checkMerged(t, out, inputs)
	total := 0
	for _, tb := range out {
		total += tb.Len()
	}
	if total != 2 {
		t.Fatalf("distinct keys after merge = %d, want 2", total)
	}
}

func TestCase1AllView(t *testing.T) {
	// The "all" view: one empty-key row per processor must collapse to
	// a single row holding the grand total.
	parts := []*record.Table{}
	var want int64
	for i := 0; i < 5; i++ {
		tb := record.New(0, 1)
		tb.Append(nil, int64(i+1))
		parts = append(parts, tb)
		want += int64(i + 1)
	}
	out, res := runMergeView(t, parts, lattice.Empty, sameOrders(5, lattice.Order{}), lattice.Order{}, lattice.Order{0, 1, 2}, 0.03)
	rows := 0
	var got int64
	for _, tb := range out {
		rows += tb.Len()
		if tb.Len() > 0 {
			got = tb.Meas(0)
		}
	}
	if rows != 1 || got != want {
		t.Fatalf("all view: rows=%d total=%d, want 1 row of %d", rows, got, want)
	}
	if res[0].Case != CasePrefix {
		t.Fatalf("all view should be a prefix view, got %v", res[0].Case)
	}
}

func TestCase2OverlapMerge(t *testing.T) {
	// Non-prefix view (order BA against global AB...): parts are mostly
	// range-aligned in the target order with a small spill into the
	// next processor's range — the paper's Figure 4 Case 2 picture.
	v := mustParse("AB")
	order := lattice.Order{1, 0} // BA: not a prefix of the global order
	global := lattice.Order{0, 1, 2}
	rng := rand.New(rand.NewSource(4))
	parts := make([]*record.Table, 4)
	inputs := make([]*record.Table, 4)
	for j := range parts {
		tb := record.New(2, 0)
		seen := map[[2]uint32]bool{}
		for len(seen) < 50 {
			// First (B) column concentrated in this processor's band,
			// with ~10% spilling into the next band.
			b := uint32(10*j + rng.Intn(10))
			if rng.Intn(10) == 0 {
				b = uint32(10*j + 10 + rng.Intn(3))
			}
			k := [2]uint32{b, uint32(rng.Intn(40))}
			if !seen[k] {
				seen[k] = true
				tb.Append(k[:], int64(rng.Intn(5)+1))
			}
		}
		tb.Sort()
		parts[j] = tb
		inputs[j] = tb.Clone()
	}
	out, res := runMergeView(t, parts, v, sameOrders(4, order), order, global, 0.5)
	for _, r := range res {
		if r.Case != CaseOverlap {
			t.Fatalf("case = %v (imbalance %v), want overlap", r.Case, r.Imbalance)
		}
	}
	checkMerged(t, out, inputs)
}

func TestCase3GlobalSortOnImbalance(t *testing.T) {
	// All data on one processor: estimated |v'| is maximally imbalanced,
	// forcing the global sort path.
	v := mustParse("AB")
	order := lattice.Order{1, 0}
	global := lattice.Order{0, 1, 2}
	big := record.New(2, 0)
	for i := 0; i < 400; i++ {
		big.Append([]uint32{uint32(i % 20), uint32(i / 20)}, 1)
	}
	big.Sort()
	parts := []*record.Table{big, record.New(2, 0), record.New(2, 0), record.New(2, 0)}
	inputs := []*record.Table{big.Clone(), record.New(2, 0), record.New(2, 0), record.New(2, 0)}
	out, res := runMergeView(t, parts, v, sameOrders(4, order), order, global, 0.03)
	for _, r := range res {
		if r.Case != CaseGlobalSort {
			t.Fatalf("case = %v, want global sort", r.Case)
		}
	}
	checkMerged(t, out, inputs)
	// The sample sort must have rebalanced.
	sizes := make([]int, 4)
	for i, tb := range out {
		sizes[i] = tb.Len()
	}
	for _, s := range sizes {
		if s < 80 || s > 120 {
			t.Fatalf("post-case-3 sizes %v not balanced", sizes)
		}
	}
}

func TestResortInLocalTreeMode(t *testing.T) {
	// Processor 1 materialized the view as AB while the agreed target
	// is BA; it must re-sort before merging.
	v := mustParse("AB")
	target := lattice.Order{1, 0}
	global := lattice.Order{0, 1, 2}
	// Part 0 in BA layout already.
	p0 := record.FromRows(2, [][]uint32{{1, 3}, {2, 1}}, []int64{1, 2}) // (B,A) rows
	// Part 1 in AB layout: rows (A,B) = (3,5), (9,0).
	p1 := record.FromRows(2, [][]uint32{{3, 5}, {9, 0}}, []int64{3, 4})
	orders := []lattice.Order{{1, 0}, {0, 1}}
	// Inputs in target layout: p1's rows become (B,A) = (5,3), (0,9).
	in1 := record.FromRows(2, [][]uint32{{5, 3}, {0, 9}}, []int64{3, 4})
	in1.Sort()
	out, res := runMergeView(t, []*record.Table{p0, p1}, v, orders, target, global, 0.9)
	if res[0].Resorted || !res[1].Resorted {
		t.Fatalf("resort flags wrong: %v %v", res[0].Resorted, res[1].Resorted)
	}
	checkMerged(t, out, []*record.Table{p0.Clone(), in1})
}

func TestSingleProcessorNoOp(t *testing.T) {
	v := mustParse("AB")
	order := lattice.Order{1, 0}
	tb := record.FromRows(2, [][]uint32{{1, 1}, {2, 2}}, []int64{1, 2})
	inputs := []*record.Table{tb.Clone()}
	out, res := runMergeView(t, []*record.Table{tb}, v, sameOrders(1, order), order, lattice.Order{0, 1, 2}, 0.03)
	checkMerged(t, out, inputs)
	if res[0].Rows != 2 {
		t.Fatalf("rows = %d", res[0].Rows)
	}
}

func TestAllEmpty(t *testing.T) {
	v := mustParse("AB")
	order := lattice.Order{1, 0}
	parts := []*record.Table{record.New(2, 0), record.New(2, 0), record.New(2, 0)}
	out, _ := runMergeView(t, parts, v, sameOrders(3, order), order, lattice.Order{0, 1, 2}, 0.03)
	for _, tb := range out {
		if tb.Len() != 0 {
			t.Fatal("empty merge produced rows")
		}
	}
}

func TestQuickMergeRandomDistributions(t *testing.T) {
	// Random local aggregates of a shared underlying data set, random
	// placement; any gamma. The merged result must always equal the
	// group-by of the union.
	f := func(seed int64, pRaw, gammaRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := int(pRaw%5) + 1
		gamma := float64(gammaRaw%50) / 100
		order := lattice.Order{1, 0}
		global := lattice.Order{0, 1, 2}
		parts := make([]*record.Table, p)
		inputs := make([]*record.Table, p)
		for j := 0; j < p; j++ {
			tb := record.New(2, 0)
			used := map[[2]uint32]bool{}
			rows := rng.Intn(60)
			for len(used) < rows {
				k := [2]uint32{uint32(rng.Intn(10)), uint32(rng.Intn(10))}
				if !used[k] {
					used[k] = true
					tb.Append(k[:], int64(rng.Intn(9)+1))
				}
			}
			tb.Sort()
			parts[j] = tb
			inputs[j] = tb.Clone()
		}
		m := cluster.New(p, costmodel.Default())
		for i, tb := range parts {
			m.Proc(i).Disk().Put("v", tb)
		}
		m.Run(func(pr *cluster.Proc) {
			MergeViewAgg(pr, "v", mustParse("AB"), order, order, global, gamma, record.Agg{Op: record.OpSum})
		})
		union := record.New(2, 0)
		concat := record.New(2, 0)
		prevLast := -1
		for i := 0; i < p; i++ {
			union.AppendTable(inputs[i])
			tb := m.Proc(i).Disk().MustGet("v")
			if !tb.IsSorted() {
				return false
			}
			if tb.Len() > 0 && prevLast >= 0 {
				if record.CompareTables(concat, prevLast, tb, 0, 2) >= 0 {
					return false
				}
			}
			concat.AppendTable(tb)
			if tb.Len() > 0 {
				prevLast = concat.Len() - 1
			}
		}
		want := record.SortAggregateAgg(union, record.Agg{Op: record.OpSum})
		return record.Equal(concat, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestImbalanceEstimateAccuracy(t *testing.T) {
	// Perfectly range-partitioned parts of equal size: the sampled |v'|
	// totals must report (near) zero imbalance and take Case 2. The
	// paper's argument: a 100p-element spaced sample gives ~1/p%
	// accuracy on each |v'j|, plenty for a percent-level test.
	v := mustParse("AB")
	order := lattice.Order{1, 0}
	global := lattice.Order{0, 1, 2}
	p := 4
	parts := make([]*record.Table, p)
	inputs := make([]*record.Table, p)
	for j := 0; j < p; j++ {
		tb := record.New(2, 0)
		for b := 10 * j; b < 10*(j+1); b++ {
			for a := 0; a < 20; a++ {
				tb.Append([]uint32{uint32(b), uint32(a)}, 1)
			}
		}
		tb.Sort()
		parts[j] = tb
		inputs[j] = tb.Clone()
	}
	out, res := runMergeView(t, parts, v, sameOrders(p, order), order, global, 0.05)
	for _, r := range res {
		if r.Case != CaseOverlap {
			t.Fatalf("case = %v (I=%v), want overlap", r.Case, r.Imbalance)
		}
		if r.Imbalance > 0.05 {
			t.Fatalf("estimated imbalance %v too high for perfectly partitioned data", r.Imbalance)
		}
	}
	checkMerged(t, out, inputs)
	// Nothing should have moved: each processor keeps its own band.
	for j, tb := range out {
		if tb.Len() != 200 {
			t.Fatalf("processor %d holds %d rows, want 200", j, tb.Len())
		}
	}
}
