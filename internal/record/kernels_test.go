package record

import (
	"math/rand"
	"sort"
	"testing"
)

// stableSortRef is the oracle for the radix path: indices sorted with
// a stable comparison sort, then gathered. The radix kernel is LSD
// (stable), so its output must match this exactly — measures included.
func stableSortRef(t *Table) *Table {
	idx := make([]int, t.Len())
	for i := range idx {
		idx[i] = i
	}
	// Insertion sort on indices: O(n^2) but trivially stable and
	// obviously correct for test-sized inputs.
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && t.Compare(idx[j], idx[j-1], t.D) < 0; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	out := New(t.D, t.Len())
	for _, p := range idx {
		out.AppendFrom(t, p)
	}
	return out
}

// wideRandomTable builds a table whose measured key plan exceeds 128
// bits (full 32-bit values in every column), forcing the comparison
// fallback for d >= 5.
func wideRandomTable(seed int64, n, d int) *Table {
	rng := rand.New(rand.NewSource(seed))
	t := New(d, n)
	row := make([]uint32, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Uint32() | 1<<31 // force width 32 per column
		}
		t.Append(row, int64(rng.Intn(100)))
	}
	return t
}

// packRow packs row i of t into its [hi, lo] key pair through the bulk
// PackKeys kernel; hi is zero for narrow plans.
func packRow(kp KeyPlan, t *Table, i int) (hi, lo uint64) {
	h, l := make([]uint64, 1), make([]uint64, 1)
	kp.PackKeys(t.Window(i, i+1), h, l)
	return h[0], l[0]
}

func TestKeyPlanPackRowOrdersLikeCompare(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(7))
	for _, d := range []int{1, 2, 3, 4} {
		tb := randomTable(rng.Int63(), 200, d, 1<<uint(4*d)) // up to 16 bits/col
		kp := MeasureKeyPlan(tb)
		if !kp.Packable() {
			t.Fatalf("d=%d plan unexpectedly unpackable (%d bits)", d, kp.bits)
		}
		for trial := 0; trial < 500; trial++ {
			i, j := rng.Intn(tb.Len()), rng.Intn(tb.Len())
			hi1, lo1 := packRow(kp, tb, i)
			hi2, lo2 := packRow(kp, tb, j)
			keyCmp := 0
			if hi1 != hi2 || lo1 != lo2 {
				keyCmp = -1
				if hi1 > hi2 || (hi1 == hi2 && lo1 > lo2) {
					keyCmp = 1
				}
			}
			if rowCmp := tb.Compare(i, j, d); keyCmp != rowCmp {
				t.Fatalf("d=%d rows %d,%d: key compare %d, row compare %d", d, i, j, keyCmp, rowCmp)
			}
		}
	}
}

func TestKeyPlanWidePackOrdersLikeCompare(t *testing.T) {
	t.Parallel()
	// 5 columns of full 32-bit values: 160 bits, unpackable. 3 columns:
	// 96 bits, wide (two-word) but packable.
	tb := wideRandomTable(3, 300, 3)
	kp := MeasureKeyPlan(tb)
	if !kp.Packable() || !kp.Wide() {
		t.Fatalf("want wide packable plan, got bits=%d", kp.bits)
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 1000; trial++ {
		i, j := rng.Intn(tb.Len()), rng.Intn(tb.Len())
		hi1, lo1 := packRow(kp, tb, i)
		hi2, lo2 := packRow(kp, tb, j)
		keyCmp := 0
		if hi1 != hi2 || lo1 != lo2 {
			keyCmp = -1
			if hi1 > hi2 || (hi1 == hi2 && lo1 > lo2) {
				keyCmp = 1
			}
		}
		if rowCmp := tb.Compare(i, j, tb.D); keyCmp != rowCmp {
			t.Fatalf("rows %d,%d: key compare %d, row compare %d", i, j, keyCmp, rowCmp)
		}
	}
}

func TestPlanKeyFromCards(t *testing.T) {
	t.Parallel()
	kp := PlanKeyFromCards([]int{256, 2, 1, 0, 1 << 20})
	want := []uint8{8, 1, 0, 32, 20}
	for i, w := range want {
		if kp.widths[i] != w {
			t.Fatalf("card width %d = %d, want %d", i, kp.widths[i], w)
		}
	}
	if kp.bits != 61 {
		t.Fatalf("bits = %d, want 61", kp.bits)
	}
}

func TestRadixSortMatchesStableOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	cases := []struct {
		n, d, card int
	}{
		{radixMinRows, 1, 4},     // d=1, heavy duplicates
		{500, 1, 1 << 20},        // d=1, wide values
		{500, 4, 7},              // duplicates across a medium prefix
		{2000, 8, 256},           // the paper's d=8 shape
		{300, 10, 4},             // d=10, narrow columns still pack
		{257, 3, 1 << 16},        // 48-bit keys
		{1000, 3, 1 << 31},       // 93+ bit keys: wide two-word path
		{radixMinRows + 1, 2, 1}, // all-equal keys
	}
	for _, c := range cases {
		tb := randomTable(rng.Int63(), c.n, c.d, c.card)
		kp := MeasureKeyPlan(tb)
		if !kp.Packable() {
			t.Fatalf("case %+v should pack (bits=%d)", c, kp.bits)
		}
		want := stableSortRef(tb)
		got := tb.Clone()
		got.sortRadix(kp)
		if !Equal(got, want) {
			t.Fatalf("case %+v: radix sort differs from stable oracle", c)
		}
	}
}

func TestSortFallbackWhenUnpackable(t *testing.T) {
	t.Parallel()
	// 10 columns of full-width values cannot pack (320 bits); Sort must
	// still produce a correctly sorted permutation of the input.
	tb := wideRandomTable(11, 400, 10)
	if kp := MeasureKeyPlan(tb); kp.Packable() {
		t.Fatalf("expected unpackable plan, got %d bits", kp.bits)
	}
	before := tb.TotalMeasure()
	tb.Sort()
	if !tb.IsSorted() || tb.TotalMeasure() != before {
		t.Fatal("fallback sort incorrect")
	}
}

// TestRadixSortMatchesComparisonSort runs the comparison sort — the
// path Sort takes for keys wider than 128 bits — and the radix kernel
// on the same input. On a duplicate-free table the two must agree bit
// for bit (with duplicate keys only the dims agree: radix is stable,
// sort.Sort is not; the aggregated relation is the determinism
// boundary, asserted end to end by rolap's wide-key cube test).
func TestRadixSortMatchesComparisonSort(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(21))
	tb := New(2, 0)
	seen := map[uint64]bool{}
	for len(seen) < 900 {
		a, b := uint32(rng.Intn(1000)), uint32(rng.Intn(1000))
		k := uint64(a)<<32 | uint64(b)
		if !seen[k] {
			seen[k] = true
			tb.Append([]uint32{a, b}, int64(rng.Intn(50)))
		}
	}
	radix := tb.Clone()
	radix.sortRadix(MeasureKeyPlan(radix))
	comparison := tb.Clone()
	sort.Sort(sorter{comparison})
	if !Equal(radix, comparison) {
		t.Fatal("radix and comparison sorts disagree on duplicate-free input")
	}
	viaSort := tb.Clone()
	viaSort.Sort()
	if !Equal(viaSort, radix) {
		t.Fatal("Sort did not take the radix path's result on a packable table")
	}
}

func TestSortEmptyAndTiny(t *testing.T) {
	t.Parallel()
	e := New(3, 0)
	e.Sort()
	if e.Len() != 0 {
		t.Fatal("empty sort corrupted table")
	}
	one := FromRows(2, [][]uint32{{5, 5}}, []int64{3})
	one.Sort()
	if one.Meas(0) != 3 {
		t.Fatal("singleton sort corrupted table")
	}
	zeroCols := New(0, 0)
	zeroCols.Append(nil, 1)
	zeroCols.Append(nil, 2)
	zeroCols.Sort()
	if zeroCols.Len() != 2 || zeroCols.TotalMeasure() != 3 {
		t.Fatal("zero-column sort corrupted table")
	}
}

func TestSortWithPlanFromCards(t *testing.T) {
	t.Parallel()
	cards := []int{256, 128, 64, 32, 16, 8, 6, 6}
	tb := randomTable(5, 3000, 8, 6) // values < 6 fit every card
	kp := PlanKeyFromCards(cards)
	want := stableSortRef(tb)
	tb.SortWithPlan(kp, true)
	if !Equal(tb, want) {
		t.Fatal("SortWithPlan(cards) differs from stable oracle")
	}
}

func TestApplyPermutation(t *testing.T) {
	t.Parallel()
	tb := FromRows(2, [][]uint32{{0, 0}, {1, 1}, {2, 2}, {3, 3}}, []int64{0, 1, 2, 3})
	tb.applyPermutation([]uint32{3, 1, 0, 2}, new(sortScratch))
	want := FromRows(2, [][]uint32{{3, 3}, {1, 1}, {0, 0}, {2, 2}}, []int64{3, 1, 0, 2})
	if !Equal(tb, want) {
		t.Fatalf("permutation wrong: %v", tb)
	}
}

func TestLoserTreeMergeMatchesHeapOracle(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		k := rng.Intn(9) + 1
		d := rng.Intn(4) + 1
		card := []int{2, 8, 1 << 10, 1 << 20}[rng.Intn(4)]
		tables := make([]*Table, k)
		total := 0
		for i := range tables {
			n := rng.Intn(200)
			if rng.Intn(5) == 0 {
				n = 0
			}
			tables[i] = randomTable(rng.Int63(), n, d, card)
			tables[i].Sort()
			total += n
		}
		for _, aggregate := range []bool{false, true} {
			for _, op := range []AggOp{OpSum, OpMin, OpMax} {
				want := mergeSortedHeap(tables, d, total, aggregate, Agg{Op: op})
				got := mergeSortedAgg(tables, aggregate, Agg{Op: op})
				if !Equal(got, want) {
					t.Fatalf("trial %d (k=%d d=%d agg=%v op=%v): tree merge differs from heap",
						trial, k, d, aggregate, op)
				}
			}
		}
	}
}

func TestLoserTreeMergeUnpackableFallsBack(t *testing.T) {
	t.Parallel()
	// 6 full-width columns force the heap path; output must still be a
	// correct aggregating merge.
	a := wideRandomTable(17, 150, 6)
	b := wideRandomTable(18, 150, 6)
	a.Sort()
	b.Sort()
	m := MergeSortedAggregateOp([]*Table{a, b}, OpSum)
	if !m.IsSorted() {
		t.Fatal("fallback merge not sorted")
	}
	if m.TotalMeasure() != a.TotalMeasure()+b.TotalMeasure() {
		t.Fatal("fallback merge lost measure mass")
	}
}

func TestLoserTreeDirect(t *testing.T) {
	t.Parallel()
	// Exercise the tree structure itself for every k, including
	// interleaved closes, against a linear-scan reference.
	rng := rand.New(rand.NewSource(31))
	for k := 1; k <= 17; k++ {
		type src struct {
			keys []uint64
			pos  int
		}
		srcs := make([]src, k)
		var all []uint64
		for i := range srcs {
			n := rng.Intn(30)
			keys := make([]uint64, n)
			for j := range keys {
				keys[j] = uint64(rng.Intn(50))
			}
			// Each stream must be sorted.
			for a := 1; a < n; a++ {
				for b := a; b > 0 && keys[b] < keys[b-1]; b-- {
					keys[b], keys[b-1] = keys[b-1], keys[b]
				}
			}
			srcs[i] = src{keys: keys}
			all = append(all, keys...)
		}
		for a := 1; a < len(all); a++ {
			for b := a; b > 0 && all[b] < all[b-1]; b-- {
				all[b], all[b-1] = all[b-1], all[b]
			}
		}
		lt := NewLoserTree(k)
		for i := range srcs {
			if len(srcs[i].keys) > 0 {
				lt.SetKey(i, 0, srcs[i].keys[0])
			}
		}
		lt.Init()
		var got []uint64
		for {
			w := lt.Winner()
			if w < 0 {
				break
			}
			s := &srcs[w]
			got = append(got, s.keys[s.pos])
			s.pos++
			if s.pos >= len(s.keys) {
				lt.Close(w)
			} else {
				lt.SetKey(w, 0, s.keys[s.pos])
			}
			lt.Fix()
		}
		if len(got) != len(all) {
			t.Fatalf("k=%d: popped %d keys, want %d", k, len(got), len(all))
		}
		for i := range got {
			if got[i] != all[i] {
				t.Fatalf("k=%d: key %d = %d, want %d", k, i, got[i], all[i])
			}
		}
	}
}

func TestZeroColumnMergeAndPlan(t *testing.T) {
	t.Parallel()
	// Regression: a pure-aggregate query projects to zero group-by
	// columns; MeasureKeyPlan must terminate on d=0 tables and the
	// merge must collapse everything into one row.
	mk := func(meas ...int64) *Table {
		tb := New(0, len(meas))
		for _, m := range meas {
			tb.Append(nil, m)
		}
		return tb
	}
	kp := MeasureKeyPlan(mk(1, 2, 3))
	if kp.Cols() != 0 || !kp.Packable() || kp.Wide() {
		t.Fatalf("bad zero-column plan: %+v", kp)
	}
	got := MergeSortedAggregateOp([]*Table{mk(1, 2), mk(10), mk(100, 200)}, OpSum)
	if got.Len() != 1 || got.Meas(0) != 313 {
		t.Fatalf("zero-column aggregate merge: len=%d meas=%v", got.Len(), got)
	}
	want := mergeSortedHeap([]*Table{mk(1, 2), mk(10), mk(100, 200)}, 0, 5, true, Agg{Op: OpSum})
	if !Equal(got, want) {
		t.Fatal("zero-column merge differs from heap oracle")
	}
}
