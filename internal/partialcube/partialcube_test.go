package partialcube

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/estimate"
	"repro/internal/lattice"
	"repro/internal/pipesort"
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

func sizer4() estimate.Sizer { return estimate.NewCardenas(10000, []int{16, 8, 4, 2}) }

func TestPrunedContainsSelectedAndValidates(t *testing.T) {
	sel := []lattice.ViewID{mustParse("AC"), mustParse("A")}
	tree := Plan(Pruned, 4, lattice.Root(0, 4), lattice.Canonical(lattice.Root(0, 4)),
		lattice.Partition(0, 4), sel, sizer4())
	if err := tree.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, tree)
	}
	for _, v := range sel {
		n := tree.Node(v)
		if n == nil || !n.Wanted {
			t.Fatalf("selected %v missing or unwanted\n%s", v, tree)
		}
	}
	// Every leaf must be selected (no useless intermediates at leaves).
	tree.Walk(func(n *lattice.Node) {
		if len(n.Children) == 0 && !n.Wanted {
			t.Fatalf("unselected leaf %v\n%s", n.View, tree)
		}
	})
	// Root is intermediate unless selected.
	if tree.Root.Wanted {
		t.Fatal("unselected root marked wanted")
	}
}

func TestPrunedFullSelectionEqualsFullTree(t *testing.T) {
	all := lattice.Partition(0, 4)
	tree := Plan(Pruned, 4, lattice.Root(0, 4), lattice.Canonical(lattice.Root(0, 4)), all, all, sizer4())
	if tree.Len() != len(all) {
		t.Fatalf("full selection pruned to %d views, want %d", tree.Len(), len(all))
	}
	tree.Walk(func(n *lattice.Node) {
		if !n.Wanted {
			t.Fatalf("view %v unwanted under full selection", n.View)
		}
	})
}

func TestGreedyStructure(t *testing.T) {
	sel := []lattice.ViewID{mustParse("AB"), mustParse("AC"), mustParse("A")}
	tree := Plan(Greedy, 4, lattice.Root(0, 4), lattice.Canonical(lattice.Root(0, 4)),
		lattice.Partition(0, 4), sel, sizer4())
	if err := tree.Validate(); err != nil {
		t.Fatalf("%v\n%s", err, tree)
	}
	// Greedy materializes only root + selected.
	if tree.Len() != 4 {
		t.Fatalf("greedy tree has %d views, want 4\n%s", tree.Len(), tree)
	}
	for _, v := range sel {
		if tree.Node(v) == nil {
			t.Fatalf("selected %v missing", v)
		}
	}
}

func TestGreedySelectedIncludesRoot(t *testing.T) {
	root := lattice.Root(0, 3)
	sel := []lattice.ViewID{root, mustParse("A")}
	tree := Plan(Greedy, 3, root, lattice.Canonical(root), lattice.Partition(0, 3), sel, estimate.NewCardenas(100, []int{4, 4, 4}))
	if !tree.Root.Wanted {
		t.Fatal("selected root must be wanted")
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestPlanPanicsOnForeignView(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Plan(Pruned, 3, mustParse("B"), nil, lattice.Partition(1, 3), []lattice.ViewID{mustParse("A")}, sizer4())
}

func TestSelectPercent(t *testing.T) {
	d := 6
	total := 1 << uint(d)
	for _, pct := range []int{25, 50, 75, 100} {
		sel := SelectPercent(d, pct, 42)
		want := total * pct / 100
		if len(sel) != want {
			t.Fatalf("%d%%: %d views, want %d", pct, len(sel), want)
		}
		// Determinism.
		again := SelectPercent(d, pct, 42)
		for i := range sel {
			if sel[i] != again[i] {
				t.Fatal("SelectPercent not deterministic")
			}
		}
	}
	if len(SelectPercent(3, 1, 7)) != 1 {
		t.Fatal("minimum selection is one view")
	}
}

func TestSelectPercentNested(t *testing.T) {
	// Larger percentages must be supersets of smaller ones (same seed),
	// since both take a prefix of the same hash order.
	lo := SelectPercent(5, 25, 9)
	hi := SelectPercent(5, 75, 9)
	set := map[lattice.ViewID]bool{}
	for _, v := range hi {
		set[v] = true
	}
	for _, v := range lo {
		if !set[v] {
			t.Fatalf("view %v in 25%% but not 75%%", v)
		}
	}
}

// TestPartialExecutionCorrectness runs a pruned partial plan through
// the pipesort executor and validates the selected views against a
// brute-force group-by.
func TestPartialExecutionCorrectness(t *testing.T) {
	d := 4
	cards := []int{8, 6, 4, 3}
	rng := rand.New(rand.NewSource(17))
	raw := record.New(d, 0)
	row := make([]uint32, d)
	for i := 0; i < 1500; i++ {
		for j := range row {
			row[j] = uint32(rng.Intn(cards[j]))
		}
		raw.Append(row, int64(rng.Intn(4)+1))
	}
	sizer := estimate.NewCardenas(int64(raw.Len()), cards)
	sel := []lattice.ViewID{mustParse("AC"), mustParse("AD"), mustParse("A")}
	for _, kind := range []Kind{Pruned, Greedy} {
		tree := Plan(kind, d, lattice.Root(0, d), lattice.Canonical(lattice.Root(0, d)),
			lattice.Partition(0, d), sel, sizer)
		if err := tree.Validate(); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		disk := simdisk.New(costmodel.NewClock(costmodel.Default()))
		proj := raw.Project([]int(tree.Root.Order))
		disk.Put("view."+tree.Root.View.String(), record.SortAggregateAgg(proj, record.Agg{Op: record.OpSum}))
		pipesort.ExecuteOpts(disk, tree, func(v lattice.ViewID) string { return "view." + v.String() }, pipesort.Options{})
		for _, v := range sel {
			n := tree.Node(v)
			got := disk.MustGet("view." + v.String())
			truth := map[string]int64{}
			for i := 0; i < raw.Len(); i++ {
				key := ""
				for _, dim := range n.Order {
					key += string(rune(raw.Dim(i, dim))) + ","
				}
				truth[key] += raw.Meas(i)
			}
			if got.Len() != len(truth) {
				t.Fatalf("%s: view %v has %d rows, want %d", kind, v, got.Len(), len(truth))
			}
			if !got.IsSorted() {
				t.Fatalf("%s: view %v not sorted", kind, v)
			}
		}
	}
}

func TestGreedyCheaperThanNothingButValid(t *testing.T) {
	f := func(seed int64, dRaw, kRaw uint8) bool {
		d := int(dRaw%3) + 3 // 3..5
		root := lattice.Root(0, d)
		part := lattice.Partition(0, d)
		rng := rand.New(rand.NewSource(seed))
		k := int(kRaw)%len(part) + 1
		sel := map[lattice.ViewID]bool{}
		for len(sel) < k {
			sel[part[rng.Intn(len(part))]] = true
		}
		var selected []lattice.ViewID
		for v := range sel {
			selected = append(selected, v)
		}
		sizer := estimate.NewCardenas(5000, []int{16, 8, 8, 4, 4}[:d])
		for _, kind := range []Kind{Pruned, Greedy} {
			tree := Plan(kind, d, root, lattice.Canonical(root), part, selected, sizer)
			if tree.Validate() != nil {
				return false
			}
			for _, v := range selected {
				if tree.Node(v) == nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
