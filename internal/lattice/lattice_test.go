package lattice

import (
	"testing"
	"testing/quick"
)

func TestViewIDBasics(t *testing.T) {
	v := Empty.Add(0).Add(2).Add(3)
	if v.String() != "ACD" {
		t.Fatalf("String = %q, want ACD", v.String())
	}
	if !v.Has(2) || v.Has(1) {
		t.Fatal("Has wrong")
	}
	if v.Count() != 3 {
		t.Fatalf("Count = %d", v.Count())
	}
	if got := v.Remove(2).String(); got != "AD" {
		t.Fatalf("Remove: %q", got)
	}
	if v.Leading() != 0 {
		t.Fatalf("Leading = %d", v.Leading())
	}
	if Empty.Leading() != -1 {
		t.Fatal("Empty.Leading should be -1")
	}
	if Empty.String() != "all" {
		t.Fatalf("Empty.String = %q", Empty.String())
	}
	dims := v.Dims()
	if len(dims) != 3 || dims[0] != 0 || dims[1] != 2 || dims[2] != 3 {
		t.Fatalf("Dims = %v", dims)
	}
}

func TestParseViewRoundTrip(t *testing.T) {
	for _, v := range AllViews(5) {
		got, err := ParseView(v.String())
		if err != nil || got != v {
			t.Fatalf("round trip %v: got %v err %v", v, got, err)
		}
	}
	if _, err := ParseView("A1"); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestSubsetOf(t *testing.T) {
	abcd := Full(4)
	ac, _ := ParseView("AC")
	bd, _ := ParseView("BD")
	if !ac.SubsetOf(abcd) || !bd.SubsetOf(abcd) {
		t.Fatal("subset of full failed")
	}
	if ac.SubsetOf(bd) || bd.SubsetOf(ac) {
		t.Fatal("disjoint views reported subsets")
	}
	if !Empty.SubsetOf(ac) {
		t.Fatal("empty must be subset of everything")
	}
}

func TestAllViewsCount(t *testing.T) {
	if got := len(AllViews(4)); got != 16 {
		t.Fatalf("AllViews(4) = %d views", got)
	}
}

func TestRoot(t *testing.T) {
	// Figure 3 with d=4: A-root=ABCD, B-root=BCD, C-root=CD, D-root=D.
	want := []string{"ABCD", "BCD", "CD", "D"}
	for i, w := range want {
		if got := Root(i, 4).String(); got != w {
			t.Fatalf("Root(%d,4) = %s, want %s", i, got, w)
		}
	}
}

func TestPartitionMatchesFigure3(t *testing.T) {
	// Figure 3, d=4: A-partition = {ABCD ABC ABD ACD AB AC AD A},
	// B-partition = {BCD BC BD B}, C-partition = {CD C},
	// D-partition = {D, all}.
	wants := [][]string{
		{"A", "AB", "AC", "ABC", "AD", "ABD", "ACD", "ABCD"},
		{"B", "BC", "BD", "BCD"},
		{"C", "CD"},
		{"all", "D"},
	}
	for i, want := range wants {
		got := Partition(i, 4)
		if len(got) != len(want) {
			t.Fatalf("Partition(%d,4) = %v, want %v", i, got, want)
		}
		for j, w := range want {
			wv, _ := ParseView(w)
			if got[j] != wv {
				t.Fatalf("Partition(%d,4)[%d] = %v, want %v", i, j, got[j], wv)
			}
		}
	}
}

func TestPartitionsCoverLatticeExactlyOnce(t *testing.T) {
	f := func(dRaw uint8) bool {
		d := int(dRaw%8) + 1
		seen := map[ViewID]int{}
		for i := 0; i < d; i++ {
			for _, v := range Partition(i, d) {
				seen[v]++
				if PartitionOf(v, d) != i {
					return false
				}
				if !Root(i, d).SubsetOf(Full(d)) || !v.SubsetOf(Root(i, d)) {
					return false
				}
			}
		}
		if len(seen) != 1<<uint(d) {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionSubset(t *testing.T) {
	sel := []ViewID{mustParse("AC"), mustParse("BD"), mustParse("B"), Empty}
	got := PartitionSubset(1, 4, sel)
	if len(got) != 2 || got[0] != mustParse("B") || got[1] != mustParse("BD") {
		t.Fatalf("PartitionSubset = %v", got)
	}
	got = PartitionSubset(3, 4, sel)
	if len(got) != 1 || got[0] != Empty {
		t.Fatalf("empty view should be in the last partition: %v", got)
	}
}

func mustParse(s string) ViewID {
	v, err := ParseView(s)
	if err != nil {
		panic(err)
	}
	return v
}

func TestOrderBasics(t *testing.T) {
	v := mustParse("ACD")
	o := Canonical(v)
	if o.String() != "ACD" {
		t.Fatalf("Canonical = %v", o)
	}
	if o.View() != v {
		t.Fatal("View() round trip failed")
	}
	q := OrderOf(v, []int{2, 0, 3}) // CAD
	if q.String() != "CAD" {
		t.Fatalf("OrderOf = %v", q)
	}
	if !q.Prefix(2).Equal(Order{2, 0}) {
		t.Fatalf("Prefix = %v", q.Prefix(2))
	}
	if !(Order{2, 0}).IsPrefixOf(q) {
		t.Fatal("IsPrefixOf failed")
	}
	if (Order{0, 2}).IsPrefixOf(q) {
		t.Fatal("IsPrefixOf false positive")
	}
}

func TestOrderOfRejectsBadPermutations(t *testing.T) {
	v := mustParse("AB")
	for _, bad := range [][]int{{0}, {0, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("OrderOf(%v) should panic", bad)
				}
			}()
			OrderOf(v, bad)
		}()
	}
}

func TestPrefixView(t *testing.T) {
	q := Order{0, 1, 2, 3} // ABCD
	if !PrefixView(mustParse("AB"), q) {
		t.Fatal("AB should be a prefix view of ABCD order")
	}
	if PrefixView(mustParse("AC"), q) {
		t.Fatal("AC must not be a prefix view of ABCD order")
	}
	if !PrefixView(Empty, q) {
		t.Fatal("the empty view is a prefix of anything")
	}
	// Order CAB: prefix views are C, CA(=AC), CAB(=ABC).
	q = Order{2, 0, 1}
	if !PrefixView(mustParse("AC"), q) || !PrefixView(mustParse("C"), q) {
		t.Fatal("prefix views of CAB wrong")
	}
	if PrefixView(mustParse("A"), q) {
		t.Fatal("A is not a prefix view of CAB")
	}
}

func TestOrderExtend(t *testing.T) {
	o := Order{2, 0} // CA
	ext := o.Extend(mustParse("ABCD"))
	if ext.String() != "CABD" {
		t.Fatalf("Extend = %v", ext)
	}
	// Extending with no new dims is a no-op copy.
	same := o.Extend(mustParse("AC"))
	if !same.Equal(o) {
		t.Fatalf("Extend no-op = %v", same)
	}
}

func TestProjectionFrom(t *testing.T) {
	parent := Order{2, 0, 1, 3} // CABD
	child := Order{1, 3}        // BD
	proj := child.ProjectionFrom(parent)
	if len(proj) != 2 || proj[0] != 2 || proj[1] != 3 {
		t.Fatalf("ProjectionFrom = %v", proj)
	}
}

func TestTreeBuildValidateAndChains(t *testing.T) {
	// Build the A-partition tree of Figure 3 by hand:
	// ABCD --scan--> ABC --scan--> AB --scan--> A
	//      --sort--> ACD --scan--> AC
	//      --sort--> ABD --scan--> AD
	d := 4
	tr := NewTree(d, mustParse("ABCD"), Order{0, 1, 2, 3})
	tr.AddChild(mustParse("ABCD"), mustParse("ABC"), Order{0, 1, 2}, EdgeScan)
	tr.AddChild(mustParse("ABC"), mustParse("AB"), Order{0, 1}, EdgeScan)
	tr.AddChild(mustParse("AB"), mustParse("A"), Order{0}, EdgeScan)
	tr.AddChild(mustParse("ABCD"), mustParse("ACD"), Order{0, 2, 3}, EdgeSort)
	tr.AddChild(mustParse("ACD"), mustParse("AC"), Order{0, 2}, EdgeScan)
	tr.AddChild(mustParse("ABCD"), mustParse("ABD"), Order{0, 3, 1}, EdgeSort) // materialized as ADB
	tr.AddChild(mustParse("ABD"), mustParse("AD"), Order{0, 3}, EdgeScan)
	if err := tr.Validate(); err != nil {
		t.Fatalf("Validate: %v\n%s", err, tr)
	}
	if tr.Len() != 8 {
		t.Fatalf("Len = %d", tr.Len())
	}
	chain := ScanChain(tr.Root)
	if len(chain) != 4 || chain[3].View != mustParse("A") {
		t.Fatalf("root scan chain wrong: %d nodes", len(chain))
	}
	chain = ScanChain(tr.Node(mustParse("ACD")))
	if len(chain) != 2 || chain[1].View != mustParse("AC") {
		t.Fatal("ACD scan chain wrong")
	}
	if tr.EncodedBytes() <= 0 {
		t.Fatal("EncodedBytes must be positive")
	}
	views := tr.Views()
	if len(views) != 8 || views[0] != mustParse("A") {
		t.Fatalf("Views = %v", views)
	}
}

func TestTreeValidateCatchesViolations(t *testing.T) {
	// Two scan children.
	tr := NewTree(2, mustParse("AB"), Order{0, 1})
	tr.AddChild(mustParse("AB"), mustParse("A"), Order{0}, EdgeScan)
	n := tr.AddChild(mustParse("AB"), mustParse("B"), Order{1}, EdgeSort)
	n.Edge = EdgeScan // corrupt: B is not a prefix of AB order
	if err := tr.Validate(); err == nil {
		t.Fatal("expected validation failure")
	}
}

func TestTreeAddChildPanics(t *testing.T) {
	tr := NewTree(2, mustParse("AB"), Order{0, 1})
	for _, f := range []func(){
		func() { tr.AddChild(mustParse("A"), mustParse("B"), Order{1}, EdgeSort) }, // parent missing
		func() { tr.AddChild(mustParse("AB"), mustParse("AB"), Order{0, 1}, EdgeSort) },
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

func TestTreeWalkPreorder(t *testing.T) {
	tr := NewTree(3, mustParse("ABC"), Order{0, 1, 2})
	tr.AddChild(mustParse("ABC"), mustParse("AB"), Order{0, 1}, EdgeScan)
	tr.AddChild(mustParse("AB"), mustParse("A"), Order{0}, EdgeScan)
	var seq []ViewID
	tr.Walk(func(n *Node) { seq = append(seq, n.View) })
	if len(seq) != 3 || seq[0] != mustParse("ABC") || seq[2] != mustParse("A") {
		t.Fatalf("Walk order = %v", seq)
	}
}

func TestEdgeKindStrings(t *testing.T) {
	if EdgeRoot.String() != "root" || EdgeScan.String() != "scan" || EdgeSort.String() != "sort" {
		t.Fatal("edge kind strings wrong")
	}
	if EdgeKind(9).String() == "" {
		t.Fatal("unknown kind should render")
	}
}

func TestTreeStringRendersIntermediates(t *testing.T) {
	tr := NewTree(2, mustParse("AB"), Order{0, 1})
	n := tr.AddChild(mustParse("AB"), mustParse("A"), Order{0}, EdgeScan)
	n.Wanted = false
	s := tr.String()
	if s == "" || !contains(s, "intermediate") {
		t.Fatalf("String missing intermediate marker:\n%s", s)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestCheckDimsPanics(t *testing.T) {
	for _, f := range []func(){
		func() { Full(0) },
		func() { Full(MaxDims + 1) },
		func() { AllViews(0) },
		func() { Root(-1, 4) },
		func() { Root(4, 4) },
		func() { Partition(5, 4) },
		func() { NewTree(0, Empty, Order{}) },
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

func TestOrderStringAndCanonicalEmpty(t *testing.T) {
	if (Order{}).String() != "all" {
		t.Fatalf("empty order string = %q", (Order{}).String())
	}
	if (Order{2, 0, 1}).String() != "CAB" {
		t.Fatal("order string wrong")
	}
	if len(Canonical(Empty)) != 0 {
		t.Fatal("canonical of empty should be empty")
	}
}

func TestProjectionFromPanicsOnMissingAttr(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	(Order{3}).ProjectionFrom(Order{0, 1})
}

func TestAddChildBadKindPanics(t *testing.T) {
	tr := NewTree(2, mustParse("AB"), Order{0, 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tr.AddChild(mustParse("AB"), mustParse("A"), Order{0}, EdgeRoot)
}

func TestPartitionOfAllViews(t *testing.T) {
	for _, v := range AllViews(5) {
		i := PartitionOf(v, 5)
		if i < 0 || i >= 5 {
			t.Fatalf("PartitionOf(%v) = %d", v, i)
		}
	}
}
