package extsort

import (
	"math/rand"
	"testing"

	"repro/internal/record"
)

// TestExternalSortSameChargesOnEitherPath asserts the two-clock
// discipline on a whole multi-pass sort: the path is chosen by key
// width, the simulated time and I/O are not. The same rows are sorted
// twice — as generated (40-bit keys: radix runs, loser-tree merges) and
// with the top bit of every value set (an order-preserving shift to
// 160-bit keys: comparison runs, heap merges) — and must cost the same
// and come out in the same order.
func TestExternalSortSameChargesOnEitherPath(t *testing.T) {
	t.Parallel()
	const cols, top = 5, uint32(1) << 31
	narrow := randomTable(42, 5000, cols, 50)
	wide := record.New(cols, narrow.Len())
	row := make([]uint32, cols)
	for i := 0; i < narrow.Len(); i++ {
		for j := range row {
			row[j] = narrow.Dim(i, j) | top
		}
		wide.Append(row, narrow.Meas(i))
	}
	if !record.MeasureKeyPlan(narrow).Packable() || record.MeasureKeyPlan(wide).Packable() {
		t.Fatal("test premise broken: want one packable and one unpackable input")
	}
	run := func(in *record.Table) (float64, int64, int, *record.Table) {
		d := newDisk()
		d.Put("f", in)
		rowBytes := record.RowBytes(cols)
		passes := SortBudget(d, "f", 200*rowBytes, 25*rowBytes)
		st := d.Stats()
		return d.Clock().Seconds(), st.BytesRead + st.BytesWritten, passes, d.MustGet("f")
	}
	nSec, nIO, nPasses, nOut := run(narrow)
	wSec, wIO, wPasses, wOut := run(wide)
	if nSec != wSec {
		t.Fatalf("simulated seconds differ: radix path %v, comparison path %v", nSec, wSec)
	}
	if nIO != wIO {
		t.Fatalf("I/O bytes differ: radix path %d, comparison path %d", nIO, wIO)
	}
	if nPasses != wPasses || nPasses < 1 {
		t.Fatalf("merge passes: radix path %d, comparison path %d, want equal and >= 1", nPasses, wPasses)
	}
	// The sorted dims must agree row for row once the shift is undone;
	// measures within equal-key runs may be permuted (the radix path is
	// stable, sort.Sort is not).
	if !nOut.IsSorted() || !wOut.IsSorted() || wOut.Len() != nOut.Len() {
		t.Fatal("a path produced an unsorted or short result")
	}
	for i := 0; i < nOut.Len(); i++ {
		for j := 0; j < cols; j++ {
			if wOut.Dim(i, j)&^top != nOut.Dim(i, j) {
				t.Fatalf("row %d col %d: paths disagree on row order", i, j)
			}
		}
	}
	if nOut.TotalMeasure() != wOut.TotalMeasure() {
		t.Fatal("paths disagree on measure mass")
	}
}

// TestMergeRunsLoserTreeMatchesHeap drives mergeRuns directly on the
// same pre-sorted runs through both paths and requires bit-identical
// output and identical simulated charges — the loser tree replaces the
// heap exactly, ties included.
func TestMergeRunsLoserTreeMatchesHeap(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		k := rng.Intn(7) + 2
		cols := rng.Intn(3) + 1
		card := []int{3, 100, 1 << 16}[rng.Intn(3)]
		dTree, dHeap := newDisk(), newDisk()
		var runs []string
		plan := record.KeyPlan{}
		havePlan := false
		for i := 0; i < k; i++ {
			run := randomTable(rng.Int63(), rng.Intn(300)+1, cols, card)
			run.Sort()
			p := record.MeasureKeyPlan(run)
			if !havePlan {
				plan, havePlan = p, true
			} else {
				plan = plan.Union(p)
			}
			name := "run" + string(rune('a'+i))
			dTree.Put(name, run.Clone())
			dHeap.Put(name, run)
			runs = append(runs, name)
		}
		mergeRuns(dTree, runs, "out", 16, plan, true)
		mergeRuns(dHeap, runs, "out", 16, record.KeyPlan{}, false)
		got, want := dTree.MustGet("out"), dHeap.MustGet("out")
		if !record.Equal(got, want) {
			t.Fatalf("trial %d (k=%d cols=%d card=%d): loser-tree merge differs from heap",
				trial, k, cols, card)
		}
		if dTree.Clock().Seconds() != dHeap.Clock().Seconds() || dTree.Stats() != dHeap.Stats() {
			t.Fatalf("trial %d: charges differ: tree %v %+v, heap %v %+v", trial,
				dTree.Clock().Seconds(), dTree.Stats(), dHeap.Clock().Seconds(), dHeap.Stats())
		}
	}
}

// TestExternalSortUnpackableKeys forces the heap fallback inside a
// multi-pass external sort (6 full-width columns exceed 128 key bits)
// and verifies the result is still a correct sort.
func TestExternalSortUnpackableKeys(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(23))
	n := 1200
	tb := record.New(6, n)
	row := make([]uint32, 6)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = rng.Uint32() | 1<<31
		}
		tb.Append(row, int64(rng.Intn(10)))
	}
	if record.MeasureKeyPlan(tb).Packable() {
		t.Fatal("test premise broken: keys should not pack")
	}
	want := tb.Clone()
	want.Sort()
	d := newDisk()
	d.Put("f", tb)
	rowBytes := record.RowBytes(6)
	passes := SortBudget(d, "f", 100*rowBytes, 20*rowBytes)
	if passes < 1 {
		t.Fatalf("expected external passes, got %d", passes)
	}
	got := d.MustGet("f")
	if !got.IsSorted() || !sameSortedRows(got, want) || got.TotalMeasure() != want.TotalMeasure() {
		t.Fatal("unpackable-key external sort incorrect")
	}
}
