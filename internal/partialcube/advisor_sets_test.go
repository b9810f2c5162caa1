package partialcube

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/estimate"
	"repro/internal/lattice"
	"repro/internal/pipesort"
	"repro/internal/record"
	"repro/internal/simdisk"
)

// The advisor materializes and retires views one at a time, so the
// selections it hands the planners are arbitrary lattice subsets —
// non-contiguous (holes between a view and its ancestors), singletons,
// or everything. These tests pin Plan's behavior on exactly those
// shapes for both planners.

func checkPlan(t *testing.T, kind Kind, d int, sel []lattice.ViewID, sizer estimate.Sizer) *lattice.Tree {
	t.Helper()
	root := lattice.Root(0, d)
	tree := Plan(kind, d, root, lattice.Canonical(root), lattice.Partition(0, d), sel, sizer)
	if err := tree.Validate(); err != nil {
		t.Fatalf("%s: %v\n%s", kind, err, tree)
	}
	for _, v := range sel {
		n := tree.Node(v)
		if n == nil || !n.Wanted {
			t.Fatalf("%s: selected %v missing or unwanted\n%s", kind, v, tree)
		}
	}
	tree.Walk(func(n *lattice.Node) {
		if len(n.Children) == 0 && !n.Wanted {
			t.Fatalf("%s: unselected leaf %v\n%s", kind, n.View, tree)
		}
	})
	return tree
}

func TestPlanNonContiguousSelection(t *testing.T) {
	// Holes everywhere (all in the D0-partition, whose views lead with
	// A): a 3-dim view, a 2-dim view under it, a 2-dim view on a
	// disjoint branch, and a singleton — no chain covers them, and the
	// unselected root plus (for pruned) intermediates must be filled in.
	sel := []lattice.ViewID{
		mustParse("ABD"),
		mustParse("AD"),
		mustParse("AC"),
		mustParse("A"),
	}
	sizer := sizer4()
	pruned := checkPlan(t, Pruned, 4, sel, sizer)
	greedy := checkPlan(t, Greedy, 4, sel, sizer)
	// Greedy materializes only root + selected; pruned may keep
	// intermediates but never fewer views than greedy's minimum.
	if greedy.Len() != len(sel)+1 {
		t.Fatalf("greedy tree has %d views, want %d\n%s", greedy.Len(), len(sel)+1, greedy)
	}
	if pruned.Len() < greedy.Len() {
		t.Fatalf("pruned tree (%d views) smaller than greedy minimum (%d)", pruned.Len(), greedy.Len())
	}
}

func TestPlanSingletonSelections(t *testing.T) {
	// Every view of the partition, selected alone, must plan under both
	// strategies — this is the advisor's one-view-materialized-per-step
	// regime.
	d := 4
	sizer := sizer4()
	for _, v := range lattice.Partition(0, d) {
		sel := []lattice.ViewID{v}
		for _, kind := range []Kind{Pruned, Greedy} {
			tree := checkPlan(t, kind, d, sel, sizer)
			if kind == Greedy {
				want := 2
				if v == lattice.Root(0, d) {
					want = 1
				}
				if tree.Len() != want {
					t.Fatalf("greedy singleton %v: %d views, want %d\n%s", v, tree.Len(), want, tree)
				}
			}
		}
	}
}

func TestPlanFullSetDegenerate(t *testing.T) {
	// Selecting the entire partition must work for both planners and
	// mark every node wanted (the pruned case collapses to the full
	// Pipesort tree; greedy must still cover everything).
	d := 4
	all := lattice.Partition(0, d)
	for _, kind := range []Kind{Pruned, Greedy} {
		tree := checkPlan(t, kind, d, all, sizer4())
		if tree.Len() != len(all) {
			t.Fatalf("%s: full selection plans %d views, want %d", kind, tree.Len(), len(all))
		}
		tree.Walk(func(n *lattice.Node) {
			if !n.Wanted {
				t.Fatalf("%s: view %v unwanted under full selection", kind, n.View)
			}
		})
	}
}

// TestPlanPrunedGreedyAgreeOnContents executes both planners' trees on
// the same data and asserts every selected view comes out identical:
// strategy affects cost, never answers.
func TestPlanPrunedGreedyAgreeOnContents(t *testing.T) {
	d := 4
	cards := []int{8, 6, 4, 3}
	raw := record.New(d, 0)
	row := make([]uint32, d)
	for i := 0; i < 2000; i++ {
		x := uint64(i)*0x9e3779b97f4a7c15 + 0x1234
		for j := range row {
			x ^= x >> 29
			x *= 0xbf58476d1ce4e5b9
			row[j] = uint32(x>>33) % uint32(cards[j])
		}
		raw.Append(row, int64(i%5+1))
	}
	sizer := estimate.NewCardenas(int64(raw.Len()), cards)
	sel := []lattice.ViewID{mustParse("ABD"), mustParse("AD"), mustParse("AC"), mustParse("A")}

	results := map[Kind]map[lattice.ViewID]*record.Table{}
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
		out := map[lattice.ViewID]*record.Table{}
		for _, v := range sel {
			// Project onto canonical order so the two planners' possibly
			// different attribute orders compare as sets of group rows.
			tb := disk.MustGet("view." + v.String())
			n := tree.Node(v)
			canon := lattice.Canonical(v)
			colOf := map[int]int{}
			for c, dim := range n.Order {
				colOf[dim] = c
			}
			proj := make([]int, len(canon))
			for j, dim := range canon {
				proj[j] = colOf[dim]
			}
			out[v] = record.SortAggregateAgg(tb.Project(proj), record.Agg{Op: record.OpSum})
		}
		results[kind] = out
	}
	for _, v := range sel {
		if !record.Equal(results[Pruned][v], results[Greedy][v]) {
			t.Fatalf("view %v: pruned and greedy disagree (%d rows vs %d)",
				v, results[Pruned][v].Len(), results[Greedy][v].Len())
		}
	}
}
