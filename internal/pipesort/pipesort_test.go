package pipesort

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/estimate"
	"repro/internal/lattice"
	"repro/internal/record"
	"repro/internal/simdisk"
)

func mustParse(s string) lattice.ViewID {
	v, err := lattice.ParseView(s)
	if err != nil {
		panic(err)
	}
	return v
}

func randomRaw(seed int64, n, d int, cards []int) *record.Table {
	rng := rand.New(rand.NewSource(seed))
	t := record.New(d, n)
	row := make([]uint32, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = uint32(rng.Intn(cards[j]))
		}
		t.Append(row, int64(rng.Intn(5)+1))
	}
	return t
}

// groupBy computes the ground-truth aggregation of raw over the
// dimension sequence ord (raw columns are canonical: column i = Di).
func groupBy(raw *record.Table, ord lattice.Order) map[string]int64 {
	out := map[string]int64{}
	for i := 0; i < raw.Len(); i++ {
		key := ""
		for _, dim := range ord {
			key += fmt.Sprintf("%d,", raw.Dim(i, dim))
		}
		out[key] += raw.Meas(i)
	}
	return out
}

// checkView verifies a materialized view table against ground truth:
// correct groups and sums, sorted, duplicate-free.
func checkView(t *testing.T, view lattice.ViewID, got *record.Table, ord lattice.Order, raw *record.Table) {
	t.Helper()
	truth := groupBy(raw, ord)
	if got.Len() != len(truth) {
		t.Fatalf("view %v: %d rows, want %d", view, got.Len(), len(truth))
	}
	if !got.IsSorted() {
		t.Fatalf("view %v not sorted in its order %v", view, ord)
	}
	for i := 0; i < got.Len(); i++ {
		key := ""
		for c := 0; c < got.D; c++ {
			key += fmt.Sprintf("%d,", got.Dim(i, c))
		}
		want, ok := truth[key]
		if !ok {
			t.Fatalf("view %v row %d key %q not in truth", view, i, key)
		}
		if got.Meas(i) != want {
			t.Fatalf("view %v key %q = %d, want %d", view, key, got.Meas(i), want)
		}
		if i > 0 && got.Compare(i-1, i, got.D) == 0 {
			t.Fatalf("view %v has duplicate rows", view)
		}
	}
}

func fileOf(v lattice.ViewID) string { return "view." + v.String() }

// prepRoot aggregates raw into the root view sorted by rootOrder and
// stores it on disk.
func prepRoot(disk *simdisk.Disk, raw *record.Table, rootOrder lattice.Order) {
	proj := raw.Project([]int(rootOrder))
	root := record.SortAggregateAgg(proj, record.Agg{Op: record.OpSum})
	disk.Put(fileOf(rootOrder.View()), root)
}

func TestPlanPartitionStructure(t *testing.T) {
	d := 4
	sizer := estimate.NewCardenas(10000, []int{16, 8, 4, 2})
	for i := 0; i < d; i++ {
		tree := PlanPartition(i, d, sizer)
		if err := tree.Validate(); err != nil {
			t.Fatalf("partition %d: %v\n%s", i, err, tree)
		}
		want := lattice.Partition(i, d)
		got := tree.Views()
		if len(got) != len(want) {
			t.Fatalf("partition %d: %d views, want %d", i, len(got), len(want))
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("partition %d: views %v, want %v", i, got, want)
			}
		}
		// Root order pinned to the global sort order Di..Dd-1.
		if !tree.Root.Order.Equal(lattice.Canonical(lattice.Root(i, d))) {
			t.Fatalf("partition %d root order %v not pinned", i, tree.Root.Order)
		}
	}
}

func TestPlanPrefersScanForPrefixChild(t *testing.T) {
	// With the root order pinned to ABCD, scan edges out of the pinned
	// chain are only feasible for exact prefix sets, so the root's chain
	// must begin ABCD -> ABC -> AB (the level-3 and level-2 prefix
	// views). Deeper chain membership is a genuine cost decision: with
	// these cardinalities, A is cheaper to scan off the small AD view
	// than off AB, and the optimal matching is free to do so.
	sizer := estimate.NewCardenas(100000, []int{32, 16, 8, 4})
	tree := PlanPartition(0, 4, sizer)
	chain := lattice.ScanChain(tree.Root)
	if len(chain) < 3 {
		t.Fatalf("root scan chain has %d nodes, want >= 3:\n%s", len(chain), tree)
	}
	wantChain := []string{"ABCD", "ABC", "AB"}
	for i, w := range wantChain {
		if chain[i].View != mustParse(w) {
			t.Fatalf("chain[%d] = %v, want %s\n%s", i, chain[i].View, w, tree)
		}
	}
	// Every chain member of the pinned root is materialized in the
	// global sort order's prefix.
	for _, n := range chain {
		if !n.Order.IsPrefixOf(tree.Root.Order) {
			t.Fatalf("chain node %v order %v not a prefix of root order", n.View, n.Order)
		}
	}
}

func TestPlanFreeRootOrder(t *testing.T) {
	// Sequential baseline: free root order over the full lattice.
	d := 4
	sizer := estimate.NewCardenas(10000, []int{16, 8, 4, 2})
	tree := Plan(d, lattice.Full(d), nil, lattice.AllViews(d), sizer)
	if err := tree.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, tree)
	}
	if tree.Len() != 16 {
		t.Fatalf("tree has %d views, want 16", tree.Len())
	}
}

func TestPlanPanicsOnBadInput(t *testing.T) {
	sizer := estimate.NewCardenas(100, []int{4, 4})
	for _, f := range []func(){
		// Root not among views.
		func() { Plan(2, lattice.Full(2), nil, []lattice.ViewID{mustParse("A")}, sizer) },
		// View not subset of root.
		func() {
			Plan(2, mustParse("A"), nil, []lattice.ViewID{mustParse("A"), mustParse("B")}, sizer)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestExecutePartitionCorrectness(t *testing.T) {
	d := 4
	cards := []int{8, 6, 4, 3}
	raw := randomRaw(11, 2000, d, cards)
	sizer := estimate.NewCardenas(int64(raw.Len()), cards)
	for i := 0; i < d; i++ {
		disk := simdisk.New(costmodel.NewClock(costmodel.Default()))
		tree := PlanPartition(i, d, sizer)
		prepRoot(disk, raw, tree.Root.Order)
		st := ExecuteOpts(disk, tree, fileOf, Options{})
		if st.Pipelines == 0 || st.RowsEmitted == 0 {
			t.Fatalf("partition %d: empty stats %+v", i, st)
		}
		tree.Walk(func(n *lattice.Node) {
			got := disk.MustGet(fileOf(n.View))
			checkView(t, n.View, got, n.Order, raw)
		})
	}
}

func TestExecuteFullCubeSequential(t *testing.T) {
	// The complete sequential Pipesort: plan over the whole lattice,
	// sort raw data by the derived root order, execute, verify all 2^d.
	d := 4
	cards := []int{10, 5, 4, 2}
	raw := randomRaw(23, 1500, d, cards)
	sizer := estimate.NewCardenas(int64(raw.Len()), cards)
	tree := Plan(d, lattice.Full(d), nil, lattice.AllViews(d), sizer)
	if err := tree.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, tree)
	}
	disk := simdisk.New(costmodel.NewClock(costmodel.Default()))
	prepRoot(disk, raw, tree.Root.Order)
	ExecuteOpts(disk, tree, fileOf, Options{})
	count := 0
	tree.Walk(func(n *lattice.Node) {
		count++
		checkView(t, n.View, disk.MustGet(fileOf(n.View)), n.Order, raw)
	})
	if count != 16 {
		t.Fatalf("materialized %d views, want 16", count)
	}
}

func TestExecuteEmptyInput(t *testing.T) {
	d := 3
	sizer := estimate.NewCardenas(0, []int{4, 4, 4})
	tree := PlanPartition(0, d, sizer)
	disk := simdisk.New(costmodel.NewClock(costmodel.Default()))
	disk.Put(fileOf(tree.Root.View), record.New(3, 0))
	ExecuteOpts(disk, tree, fileOf, Options{})
	tree.Walk(func(n *lattice.Node) {
		if got := disk.MustGet(fileOf(n.View)); got.Len() != 0 {
			t.Fatalf("view %v should be empty, has %d rows", n.View, got.Len())
		}
	})
}

func TestExecuteSingleRow(t *testing.T) {
	d := 3
	raw := record.FromRows(3, [][]uint32{{1, 2, 3}}, []int64{7})
	sizer := estimate.NewCardenas(1, []int{4, 4, 4})
	tree := PlanPartition(0, d, sizer)
	disk := simdisk.New(costmodel.NewClock(costmodel.Default()))
	prepRoot(disk, raw, tree.Root.Order)
	ExecuteOpts(disk, tree, fileOf, Options{})
	tree.Walk(func(n *lattice.Node) {
		got := disk.MustGet(fileOf(n.View))
		if got.Len() != 1 || got.Meas(0) != 7 {
			t.Fatalf("view %v = %v", n.View, got)
		}
	})
}

func TestExecuteChargesTime(t *testing.T) {
	d := 4
	cards := []int{8, 6, 4, 3}
	raw := randomRaw(5, 3000, d, cards)
	clk := costmodel.NewClock(costmodel.Default())
	disk := simdisk.New(clk)
	sizer := estimate.NewCardenas(int64(raw.Len()), cards)
	tree := PlanPartition(0, d, sizer)
	prepRoot(disk, raw, tree.Root.Order)
	before := clk.Seconds()
	st := ExecuteOpts(disk, tree, fileOf, Options{})
	if clk.Seconds() <= before {
		t.Fatal("execution charged no simulated time")
	}
	if clk.CPUSeconds() == 0 || clk.DiskSeconds() == 0 {
		t.Fatal("execution must charge both CPU and disk components")
	}
	if st.Sorts == 0 {
		t.Fatal("a d=4 partition requires at least one sort edge")
	}
}

func TestPipelineAggregateMultiLevel(t *testing.T) {
	// Sorted input over 3 cols; aggregate at prefix lengths 3, 2, 1, 0
	// in one pass and compare against record.AggregateSortedOp.
	raw := randomRaw(9, 500, 3, []int{4, 3, 2})
	raw.Sort()
	lens := []int{3, 2, 1, 0}
	outs := make([]*record.Table, len(lens))
	for i, l := range lens {
		outs[i] = record.New(l, 0)
	}
	pipelineAggregate(raw, lens, outs, record.Agg{Op: record.OpSum})
	for i, l := range lens {
		want := record.AggregateSortedOp(raw, l, record.OpSum)
		if !record.Equal(outs[i], want) {
			t.Fatalf("prefix %d: pipeline disagrees with AggregateSortedOp", l)
		}
	}
}

func TestStatsRowsEmittedMatchesViewSizes(t *testing.T) {
	d := 3
	cards := []int{6, 4, 2}
	raw := randomRaw(31, 800, d, cards)
	sizer := estimate.NewCardenas(int64(raw.Len()), cards)
	tree := PlanPartition(0, d, sizer)
	disk := simdisk.New(costmodel.NewClock(costmodel.Default()))
	prepRoot(disk, raw, tree.Root.Order)
	st := ExecuteOpts(disk, tree, fileOf, Options{})
	var total int64
	tree.Walk(func(n *lattice.Node) {
		if n != tree.Root {
			total += int64(disk.Len(fileOf(n.View)))
		}
	})
	if st.RowsEmitted != total {
		t.Fatalf("RowsEmitted = %d, view rows (excl. root) = %d", st.RowsEmitted, total)
	}
}
