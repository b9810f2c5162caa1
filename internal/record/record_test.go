package record

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRowBytes(t *testing.T) {
	t.Parallel()
	// The paper's 2M-row, 8-dimension raw set is 72 MB => 36 bytes/row.
	if got := RowBytes(8); got != 36 {
		t.Fatalf("RowBytes(8) = %d, want 36", got)
	}
	if got := RowBytes(0); got != 4 {
		t.Fatalf("RowBytes(0) = %d, want 4", got)
	}
}

func TestAppendAndAccessors(t *testing.T) {
	t.Parallel()
	tb := New(3, 0)
	tb.Append([]uint32{1, 2, 3}, 10)
	tb.Append([]uint32{4, 5, 6}, 20)
	if tb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tb.Len())
	}
	if tb.Dim(1, 2) != 6 {
		t.Fatalf("Dim(1,2) = %d, want 6", tb.Dim(1, 2))
	}
	if tb.Meas(0) != 10 || tb.Meas(1) != 20 {
		t.Fatalf("measures wrong: %d %d", tb.Meas(0), tb.Meas(1))
	}
	if got := tb.Bytes(); got != 2*RowBytes(3) {
		t.Fatalf("Bytes = %d, want %d", got, 2*RowBytes(3))
	}
	tb.AddMeas(0, 5)
	if tb.Meas(0) != 15 {
		t.Fatalf("AddMeas: got %d, want 15", tb.Meas(0))
	}
	tb.SetMeas(0, 7)
	if tb.Meas(0) != 7 {
		t.Fatalf("SetMeas: got %d, want 7", tb.Meas(0))
	}
}

func TestAppendPanicsOnWidthMismatch(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong row width")
		}
	}()
	New(2, 0).Append([]uint32{1}, 1)
}

func TestAppendFromAndRange(t *testing.T) {
	t.Parallel()
	src := FromRows(2, [][]uint32{{1, 1}, {2, 2}, {3, 3}}, []int64{1, 2, 3})
	dst := New(2, 0)
	dst.AppendFrom(src, 1)
	dst.AppendRange(src, 0, 2)
	dst.AppendTable(src)
	if dst.Len() != 6 {
		t.Fatalf("Len = %d, want 6", dst.Len())
	}
	if dst.Dim(0, 0) != 2 || dst.Dim(1, 0) != 1 || dst.Dim(2, 0) != 2 || dst.Dim(3, 0) != 1 {
		t.Fatalf("unexpected contents: %v", dst)
	}
}

func TestCloneAndSubAreDeep(t *testing.T) {
	t.Parallel()
	src := FromRows(2, [][]uint32{{1, 1}, {2, 2}}, nil)
	c := src.Clone()
	c.SetMeas(0, 99)
	c.Row(0)[0] = 99
	if src.Meas(0) != 1 || src.Dim(0, 0) != 1 {
		t.Fatal("Clone aliases source")
	}
	s := src.Sub(1, 2)
	if s.Len() != 1 || s.Dim(0, 0) != 2 {
		t.Fatalf("Sub wrong: %v", s)
	}
	s.Row(0)[0] = 77
	if src.Dim(1, 0) != 2 {
		t.Fatal("Sub aliases source")
	}
}

func TestWindowAliasesRowsButNotAppends(t *testing.T) {
	t.Parallel()
	parent := New(2, 8) // spare capacity: parent appends stay in place
	for i := uint32(0); i < 4; i++ {
		parent.Append([]uint32{i, i}, int64(i))
	}
	w := parent.Window(1, 3)
	if w.Len() != 2 || w.Cap() != 2 || w.Dim(0, 0) != 1 || w.Meas(1) != 2 {
		t.Fatalf("window [1,3) wrong: %v cap %d", w, w.Cap())
	}
	// A window aliases its rows: no copy is made.
	parent.SetMeas(1, 42)
	if w.Meas(0) != 42 {
		t.Fatal("window copied its rows instead of aliasing them")
	}
	parent.SetMeas(1, 1)

	// An append to the parent lands beyond the window.
	parent.Append([]uint32{4, 4}, 4)
	if w.Len() != 2 || w.Dim(1, 0) != 2 {
		t.Fatalf("parent append changed the window: %v", w)
	}
	// An append to the window reallocates instead of overwriting the
	// parent's next row.
	w.Append([]uint32{9, 9}, 99)
	if parent.Dim(3, 0) != 3 || parent.Meas(3) != 3 || parent.Len() != 5 {
		t.Fatalf("window append wrote into the parent: %v", parent)
	}
	if w.Len() != 3 || w.Dim(2, 0) != 9 {
		t.Fatalf("window append lost: %v", w)
	}

	// A window of a window covers the parent's rows; appends to it
	// leave both ancestors alone.
	outer := parent.Window(1, 4)
	inner := outer.Window(1, 2)
	if inner.Len() != 1 || inner.Cap() != 1 || inner.Dim(0, 0) != 2 {
		t.Fatalf("window of window wrong: %v", inner)
	}
	inner.Append([]uint32{8, 8}, 8)
	if outer.Dim(2, 0) != 3 || parent.Dim(3, 0) != 3 {
		t.Fatal("append to a window of a window wrote into an ancestor")
	}

	// Window(lo, lo) is empty and appending to it reallocates.
	e := parent.Window(2, 2)
	if e.Len() != 0 || e.Cap() != 0 {
		t.Fatalf("empty window has %d rows, cap %d", e.Len(), e.Cap())
	}
	e.Append([]uint32{7, 7}, 7)
	if parent.Dim(2, 0) != 2 || parent.Meas(2) != 2 {
		t.Fatal("append to an empty window wrote into the parent")
	}
	end := parent.Window(parent.Len(), parent.Len())
	end.Append([]uint32{6, 6}, 6)
	parent.Append([]uint32{5, 5}, 5)
	if end.Dim(0, 0) != 6 || parent.Dim(5, 0) != 5 {
		t.Fatal("empty window at the end shares the parent's spare capacity")
	}
}

func TestWindowPanicsOutOfRange(t *testing.T) {
	t.Parallel()
	tb := FromRows(1, [][]uint32{{1}, {2}}, nil)
	for _, r := range [][2]int{{-1, 1}, {0, 3}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Window(%d, %d) did not panic", r[0], r[1])
				}
			}()
			tb.Window(r[0], r[1])
		}()
	}
}

func TestCountRuns(t *testing.T) {
	t.Parallel()
	tb := FromRows(2, [][]uint32{{1, 1}, {1, 1}, {1, 2}, {2, 2}, {2, 2}}, nil)
	for k, want := range []int{1, 2, 3} {
		if got := CountRuns(tb, k); got != want {
			t.Errorf("CountRuns(k=%d) = %d, want %d", k, got, want)
		}
		if got := AggregateSortedOp(tb, k, OpSum).Len(); got != want {
			t.Errorf("AggregateSortedOp(k=%d) has %d rows, CountRuns %d", k, got, want)
		}
	}
	if got := CountRuns(New(3, 0), 3); got != 0 {
		t.Errorf("CountRuns of an empty table = %d", got)
	}
}

func TestProject(t *testing.T) {
	t.Parallel()
	src := FromRows(3, [][]uint32{{1, 2, 3}, {4, 5, 6}}, []int64{7, 8})
	p := src.Project([]int{2, 0})
	if p.D != 2 || p.Len() != 2 {
		t.Fatalf("shape wrong: %v", p)
	}
	if p.Dim(0, 0) != 3 || p.Dim(0, 1) != 1 || p.Dim(1, 0) != 6 || p.Dim(1, 1) != 4 {
		t.Fatalf("projection wrong: %v", p)
	}
	if p.Meas(1) != 8 {
		t.Fatalf("measure lost: %v", p)
	}
}

func TestSortAndIsSorted(t *testing.T) {
	t.Parallel()
	tb := FromRows(2, [][]uint32{{3, 1}, {1, 2}, {1, 1}, {2, 9}}, nil)
	if tb.IsSorted() {
		t.Fatal("unsorted table reported sorted")
	}
	tb.Sort()
	if !tb.IsSorted() {
		t.Fatal("sorted table reported unsorted")
	}
	want := [][]uint32{{1, 1}, {1, 2}, {2, 9}, {3, 1}}
	for i, w := range want {
		if CompareRowKey(tb, i, w) != 0 {
			t.Fatalf("row %d = %v, want %v", i, tb.Row(i), w)
		}
	}
}

func TestAggregateSorted(t *testing.T) {
	t.Parallel()
	tb := FromRows(3, [][]uint32{
		{1, 1, 5},
		{1, 1, 6},
		{1, 2, 7},
		{2, 2, 8},
		{2, 2, 9},
	}, []int64{1, 2, 3, 4, 5})
	agg := AggregateSortedOp(tb, 2, OpSum)
	if agg.D != 2 || agg.Len() != 3 {
		t.Fatalf("agg shape wrong: %v", agg)
	}
	wantMeas := []int64{3, 3, 9}
	for i, w := range wantMeas {
		if agg.Meas(i) != w {
			t.Fatalf("agg meas %d = %d, want %d", i, agg.Meas(i), w)
		}
	}
	if agg.TotalMeasure() != tb.TotalMeasure() {
		t.Fatal("aggregation lost measure mass")
	}
}

func TestAggregateSortedEmpty(t *testing.T) {
	t.Parallel()
	agg := AggregateSortedOp(New(3, 0), 2, OpSum)
	if agg.Len() != 0 {
		t.Fatalf("want empty, got %d rows", agg.Len())
	}
}

func TestSortAggregateMatchesHashGroupBy(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(42))
	tb := New(3, 0)
	truth := map[[3]uint32]int64{}
	for i := 0; i < 500; i++ {
		r := []uint32{uint32(rng.Intn(4)), uint32(rng.Intn(4)), uint32(rng.Intn(4))}
		m := int64(rng.Intn(10))
		tb.Append(r, m)
		truth[[3]uint32{r[0], r[1], r[2]}] += m
	}
	agg := SortAggregateAgg(tb, Agg{Op: OpSum})
	if agg.Len() != len(truth) {
		t.Fatalf("distinct count = %d, want %d", agg.Len(), len(truth))
	}
	for i := 0; i < agg.Len(); i++ {
		k := [3]uint32{agg.Dim(i, 0), agg.Dim(i, 1), agg.Dim(i, 2)}
		if truth[k] != agg.Meas(i) {
			t.Fatalf("group %v = %d, want %d", k, agg.Meas(i), truth[k])
		}
	}
	if !agg.IsSorted() {
		t.Fatal("aggregate not sorted")
	}
}

func TestCompareKeys(t *testing.T) {
	t.Parallel()
	cases := []struct {
		a, b []uint32
		want int
	}{
		{[]uint32{1, 2}, []uint32{1, 2}, 0},
		{[]uint32{1, 2}, []uint32{1, 3}, -1},
		{[]uint32{2}, []uint32{1, 9}, 1},
		{[]uint32{1}, []uint32{1, 0}, -1},
		{[]uint32{1, 0}, []uint32{1}, 1},
		{nil, nil, 0},
	}
	for _, c := range cases {
		if got := CompareKeys(c.a, c.b); got != c.want {
			t.Errorf("CompareKeys(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestBounds(t *testing.T) {
	t.Parallel()
	tb := FromRows(2, [][]uint32{{1, 1}, {1, 3}, {2, 0}, {2, 0}, {3, 5}}, nil)
	if got := LowerBound(tb, []uint32{2, 0}); got != 2 {
		t.Fatalf("LowerBound = %d, want 2", got)
	}
	if got := UpperBound(tb, []uint32{2, 0}); got != 4 {
		t.Fatalf("UpperBound = %d, want 4", got)
	}
	// Prefix key: all rows with first column 1.
	if lo, hi := LowerBound(tb, []uint32{1}), UpperBound(tb, []uint32{1}); lo != 0 || hi != 2 {
		t.Fatalf("prefix bounds = [%d,%d), want [0,2)", lo, hi)
	}
	if got := LowerBound(tb, []uint32{9, 9}); got != tb.Len() {
		t.Fatalf("LowerBound past end = %d, want %d", got, tb.Len())
	}
}

func TestMergeSorted(t *testing.T) {
	t.Parallel()
	a := FromRows(2, [][]uint32{{1, 1}, {3, 3}}, []int64{1, 3})
	b := FromRows(2, [][]uint32{{2, 2}, {4, 4}}, []int64{2, 4})
	m := MergeSorted([]*Table{a, b})
	if m.Len() != 4 || !m.IsSorted() {
		t.Fatalf("merge wrong: %v", m)
	}
	if m.TotalMeasure() != 10 {
		t.Fatalf("measure mass = %d, want 10", m.TotalMeasure())
	}
}

func TestMergeSortedAggregate(t *testing.T) {
	t.Parallel()
	a := FromRows(2, [][]uint32{{1, 1}, {2, 2}}, []int64{1, 2})
	b := FromRows(2, [][]uint32{{1, 1}, {3, 3}}, []int64{10, 3})
	m := MergeSortedAggregateOp([]*Table{a, b}, OpSum)
	if m.Len() != 3 {
		t.Fatalf("rows = %d, want 3", m.Len())
	}
	if m.Meas(0) != 11 {
		t.Fatalf("merged measure = %d, want 11", m.Meas(0))
	}
}

func TestMergeSortedAllEmpty(t *testing.T) {
	t.Parallel()
	m := MergeSorted([]*Table{New(3, 0), New(3, 0)})
	if m.Len() != 0 || m.D != 3 {
		t.Fatalf("want empty 3-col table, got %v", m)
	}
	m = MergeSorted(nil)
	if m.Len() != 0 {
		t.Fatalf("want empty table, got %v", m)
	}
}

// randomTable builds a deterministic pseudo-random table from quick's
// fuzz inputs.
func randomTable(seed int64, n, d, card int) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := New(d, n)
	row := make([]uint32, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = uint32(rng.Intn(card))
		}
		t.Append(row, int64(rng.Intn(100)))
	}
	return t
}

func TestQuickSortIsPermutation(t *testing.T) {
	t.Parallel()
	f := func(seed int64, n8 uint8, d3 uint8) bool {
		n := int(n8)
		d := int(d3%4) + 1
		tb := randomTable(seed, n, d, 8)
		before := tb.TotalMeasure()
		counts := map[string]int{}
		key := func(tab *Table, i int) string {
			b := make([]byte, 0, d*4)
			for j := 0; j < d; j++ {
				v := tab.Dim(i, j)
				b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			return string(b)
		}
		for i := 0; i < n; i++ {
			counts[key(tb, i)]++
		}
		tb.Sort()
		if !tb.IsSorted() || tb.TotalMeasure() != before {
			return false
		}
		for i := 0; i < n; i++ {
			counts[key(tb, i)]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMergeEqualsSortConcat(t *testing.T) {
	t.Parallel()
	f := func(seed int64, n1, n2 uint8) bool {
		a := randomTable(seed, int(n1), 3, 5)
		b := randomTable(seed+1, int(n2), 3, 5)
		a.Sort()
		b.Sort()
		merged := MergeSorted([]*Table{a, b})
		concat := New(3, 0)
		concat.AppendTable(a)
		concat.AppendTable(b)
		concat.Sort()
		if merged.Len() != concat.Len() || !merged.IsSorted() {
			return false
		}
		// Same multiset of rows and same total measure.
		return merged.TotalMeasure() == concat.TotalMeasure()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickAggregatePreservesMass(t *testing.T) {
	t.Parallel()
	f := func(seed int64, n8 uint8, kRaw uint8) bool {
		d := 4
		tb := randomTable(seed, int(n8)+1, d, 3)
		k := int(kRaw%uint8(d)) + 1
		tb.Sort()
		agg := AggregateSortedOp(tb, k, OpSum)
		if agg.TotalMeasure() != tb.TotalMeasure() {
			return false
		}
		// No adjacent duplicates on the first k columns remain.
		for i := 1; i < agg.Len(); i++ {
			if agg.Compare(i-1, i, k) == 0 {
				return false
			}
		}
		return agg.IsSorted()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStringElides(t *testing.T) {
	t.Parallel()
	tb := randomTable(1, 100, 2, 4)
	s := tb.String()
	if len(s) == 0 || len(s) > 2000 {
		t.Fatalf("String() length %d unreasonable", len(s))
	}
}

func TestAggOpCombine(t *testing.T) {
	t.Parallel()
	cases := []struct {
		op      AggOp
		a, b, w int64
	}{
		{OpSum, 3, 4, 7},
		{OpMin, 3, 4, 3},
		{OpMin, 4, 3, 3},
		{OpMax, 3, 4, 4},
		{OpMax, -5, -9, -5},
	}
	for _, c := range cases {
		if got := c.op.Combine(c.a, c.b); got != c.w {
			t.Errorf("%v.Combine(%d,%d) = %d, want %d", c.op, c.a, c.b, got, c.w)
		}
	}
	if OpSum.String() != "sum" || OpMin.String() != "min" || OpMax.String() != "max" {
		t.Fatal("AggOp strings wrong")
	}
}

func TestAggregateSortedOpMinMax(t *testing.T) {
	t.Parallel()
	tb := FromRows(2, [][]uint32{{1, 1}, {1, 1}, {1, 1}, {2, 2}}, []int64{5, 2, 9, 4})
	min := AggregateSortedOp(tb, 2, OpMin)
	if min.Meas(0) != 2 || min.Meas(1) != 4 {
		t.Fatalf("min wrong: %v", min)
	}
	max := AggregateSortedOp(tb, 2, OpMax)
	if max.Meas(0) != 9 {
		t.Fatalf("max wrong: %v", max)
	}
}

func TestMergeSortedAggregateOp(t *testing.T) {
	t.Parallel()
	a := FromRows(1, [][]uint32{{1}}, []int64{7})
	b := FromRows(1, [][]uint32{{1}, {2}}, []int64{3, 5})
	m := MergeSortedAggregateOp([]*Table{a, b}, OpMin)
	if m.Len() != 2 || m.Meas(0) != 3 || m.Meas(1) != 5 {
		t.Fatalf("merged min wrong: %v", m)
	}
}

func TestQuickAggOpsAssociative(t *testing.T) {
	t.Parallel()
	f := func(vals []int64, opRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		op := AggOp(opRaw % 3)
		// Fold left and fold right must agree (associativity), and any
		// split must combine to the total.
		acc := vals[0]
		for _, v := range vals[1:] {
			acc = op.Combine(acc, v)
		}
		for split := 1; split < len(vals); split++ {
			l := vals[0]
			for _, v := range vals[1:split] {
				l = op.Combine(l, v)
			}
			r := vals[split]
			for _, v := range vals[split+1:] {
				r = op.Combine(r, v)
			}
			if op.Combine(l, r) != acc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestResetKeepsCapacity(t *testing.T) {
	t.Parallel()
	tb := randomTable(1, 50, 2, 4)
	tb.Reset()
	if tb.Len() != 0 {
		t.Fatal("Reset did not truncate")
	}
	tb.Append([]uint32{1, 2}, 3)
	if tb.Len() != 1 || tb.Meas(0) != 3 {
		t.Fatal("table unusable after Reset")
	}
}

func TestFromRowsPanicsOnWidth(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromRows(2, [][]uint32{{1}}, nil)
}

func TestProjectPanicsOnBadColumn(t *testing.T) {
	t.Parallel()
	tb := randomTable(1, 5, 2, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.Project([]int{0, 2})
}

func TestNewPanicsOnNegativeColumns(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(-1, 0)
}

func TestAppendFromPanicsOnMismatch(t *testing.T) {
	t.Parallel()
	a, b := New(2, 0), randomTable(1, 3, 3, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	a.AppendFrom(b, 0)
}

func TestMergeMismatchedColumnsPanics(t *testing.T) {
	t.Parallel()
	a := randomTable(1, 3, 2, 4)
	b := randomTable(2, 3, 3, 4)
	a.Sort()
	b.Sort()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MergeSorted([]*Table{a, b})
}

func TestEqualDetectsDifferences(t *testing.T) {
	t.Parallel()
	a := FromRows(2, [][]uint32{{1, 2}}, []int64{3})
	if !Equal(a, a.Clone()) {
		t.Fatal("clone not equal")
	}
	b := a.Clone()
	b.SetMeas(0, 4)
	if Equal(a, b) {
		t.Fatal("measure diff missed")
	}
	c := a.Clone()
	c.Row(0)[1] = 9
	if Equal(a, c) {
		t.Fatal("dim diff missed")
	}
	if Equal(a, New(2, 0)) || Equal(a, New(3, 0)) {
		t.Fatal("shape diff missed")
	}
}

func TestAggregateOpWrongWidthPanics(t *testing.T) {
	t.Parallel()
	tb := randomTable(1, 5, 3, 4)
	tb.Sort()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AggregateSortedAggInto(tb, 2, New(3, 0), Agg{Op: OpSum})
}

func TestCombineUnknownOpPanics(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	AggOp(99).Combine(1, 2)
}
