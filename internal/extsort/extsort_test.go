package extsort

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/costmodel"
	"repro/internal/record"
	"repro/internal/simdisk"
)

func randomTable(seed int64, n, d, card int) *record.Table {
	rng := rand.New(rand.NewSource(seed))
	t := record.New(d, n)
	row := make([]uint32, d)
	for i := 0; i < n; i++ {
		for j := range row {
			row[j] = uint32(rng.Intn(card))
		}
		t.Append(row, int64(rng.Intn(100)))
	}
	return t
}

func newDisk() *simdisk.Disk { return simdisk.New(costmodel.NewClock(costmodel.Default())) }

func TestSortInMemoryPath(t *testing.T) {
	t.Parallel()
	d := newDisk()
	tb := randomTable(1, 100, 3, 10)
	want := tb.Clone()
	want.Sort()
	d.Put("f", tb)
	passes := Sort(d, "f")
	if passes != 0 {
		t.Fatalf("passes = %d, want 0 for in-memory sort", passes)
	}
	got := d.MustGet("f")
	if !record.Equal(got, want) {
		t.Fatal("in-memory path sorted incorrectly")
	}
}

// TestSortInMemoryCharges pins what the in-memory path bills: one read
// of the file's stored bytes (compressed when sealed; a range read of
// every row would charge the same) and one row-format write.
func TestSortInMemoryCharges(t *testing.T) {
	t.Parallel()
	for _, sealed := range []bool{false, true} {
		d := newDisk()
		tb := randomTable(4, 500, 3, 20)
		tb.Sort()
		d.Put("f", tb.Clone())
		if sealed {
			d.Seal("f")
		}
		stored := d.StoredBytes("f")
		before := d.Stats()
		if passes := Sort(d, "f"); passes != 0 {
			t.Fatalf("sealed=%v: %d passes, want the in-memory path", sealed, passes)
		}
		st := d.Stats()
		if st.Reads-before.Reads != 1 || st.BytesRead-before.BytesRead != int64(stored) {
			t.Errorf("sealed=%v: %d reads of %d bytes, want 1 of %d", sealed,
				st.Reads-before.Reads, st.BytesRead-before.BytesRead, stored)
		}
		if st.Writes-before.Writes != 1 || st.BytesWritten-before.BytesWritten != int64(tb.Bytes()) {
			t.Errorf("sealed=%v: %d writes of %d bytes, want 1 of %d", sealed,
				st.Writes-before.Writes, st.BytesWritten-before.BytesWritten, tb.Bytes())
		}
		if got := d.MustGet("f"); !record.Equal(got, tb) {
			t.Errorf("sealed=%v: sort changed the rows", sealed)
		}
	}
}

func TestSortExternalSinglePass(t *testing.T) {
	t.Parallel()
	d := newDisk()
	n := 1000
	tb := randomTable(2, n, 2, 50)
	want := tb.Clone()
	want.Sort()
	d.Put("f", tb)
	// Budget forces 10 runs of ~100 rows; fan-in 11 merges them in one pass.
	rowBytes := record.RowBytes(2)
	passes := SortBudget(d, "f", 96*rowBytes, 8*rowBytes)
	if passes != 1 {
		t.Fatalf("passes = %d, want 1", passes)
	}
	got := d.MustGet("f")
	if !got.IsSorted() || !sameSortedRows(got, want) || got.TotalMeasure() != want.TotalMeasure() {
		t.Fatal("external sort produced wrong order")
	}
}

func TestSortExternalMultiPass(t *testing.T) {
	t.Parallel()
	d := newDisk()
	n := 2000
	tb := randomTable(3, n, 2, 7)
	want := tb.Clone()
	want.Sort()
	d.Put("f", tb)
	// Tiny memory: runs of ~40 rows (50 runs), fan-in 3 => several passes.
	rowBytes := record.RowBytes(2)
	mem := 40 * rowBytes
	block := mem / 4
	passes := SortBudget(d, "f", mem, block)
	if passes < 2 {
		t.Fatalf("passes = %d, want >= 2 with tiny fan-in", passes)
	}
	got := d.MustGet("f")
	if !got.IsSorted() || !sameSortedRows(got, want) || got.TotalMeasure() != want.TotalMeasure() {
		t.Fatal("multi-pass external sort produced wrong order")
	}
	// No leftover run files.
	if fs := d.Files(); len(fs) != 1 || fs[0] != "f" {
		t.Fatalf("leftover files: %v", fs)
	}
}

func TestSortEmptyAndSingleton(t *testing.T) {
	t.Parallel()
	d := newDisk()
	d.Put("e", record.New(3, 0))
	if Sort(d, "e") != 0 {
		t.Fatal("empty sort should be 0 passes")
	}
	one := record.New(1, 0)
	one.Append([]uint32{5}, 1)
	d.Put("s", one)
	Sort(d, "s")
	if d.Len("s") != 1 {
		t.Fatal("singleton lost")
	}
}

func TestSortMissingFilePanics(t *testing.T) {
	t.Parallel()
	d := newDisk()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Sort(d, "missing")
}

func TestSortChargesMoreIOWhenExternal(t *testing.T) {
	t.Parallel()
	mk := func() (*simdisk.Disk, *costmodel.Clock) {
		clk := costmodel.NewClock(costmodel.Default())
		return simdisk.New(clk), clk
	}
	n := 3000
	rowBytes := record.RowBytes(2)

	dMem, _ := mk()
	dMem.Put("f", randomTable(7, n, 2, 100))
	SortBudget(dMem, "f", n*rowBytes*2, 64<<10)
	memIO := dMem.Stats().BytesRead + dMem.Stats().BytesWritten

	dExt, _ := mk()
	dExt.Put("f", randomTable(7, n, 2, 100))
	SortBudget(dExt, "f", 50*rowBytes, 10*rowBytes)
	extIO := dExt.Stats().BytesRead + dExt.Stats().BytesWritten

	if extIO <= memIO {
		t.Fatalf("external sort I/O (%d) not larger than in-memory (%d)", extIO, memIO)
	}
}

func TestSortIOWithinEnvelope(t *testing.T) {
	t.Parallel()
	// I/O volume of an external sort must stay within a small constant of
	// (passes+2) full scans of the file (read+write per pass, plus the
	// initial run formation read/write).
	clk := costmodel.NewClock(costmodel.Default())
	d := simdisk.New(clk)
	n := 5000
	tb := randomTable(11, n, 2, 31)
	fileBytes := int64(tb.Bytes())
	d.Put("f", tb)
	base := d.Stats()
	rowBytes := record.RowBytes(2)
	passes := SortBudget(d, "f", 100*rowBytes, 20*rowBytes)
	st := d.Stats()
	moved := (st.BytesRead - base.BytesRead) + (st.BytesWritten - base.BytesWritten)
	limit := int64(2*(passes+1)+1) * fileBytes
	if moved > limit {
		t.Fatalf("moved %d bytes over %d passes, exceeds envelope %d", moved, passes, limit)
	}
}

func TestQuickSortEqualsInMemory(t *testing.T) {
	t.Parallel()
	f := func(seed int64, nRaw uint16, memRaw uint8) bool {
		n := int(nRaw%3000) + 2
		d := newDisk()
		tb := randomTable(seed, n, 3, 9)
		want := tb.Clone()
		want.Sort()
		d.Put("f", tb)
		rowBytes := record.RowBytes(3)
		mem := (int(memRaw%100) + 8) * rowBytes
		SortBudget(d, "f", mem, mem/4)
		got := d.MustGet("f")
		if got.Len() != n {
			return false
		}
		// Equal multisets: compare sorted contents and measure mass.
		return got.IsSorted() && got.TotalMeasure() == want.TotalMeasure() &&
			sameSortedRows(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// sameSortedRows checks both sorted tables have identical dimension rows
// (measures may be permuted within equal-key runs by unstable sorting).
func sameSortedRows(a, b *record.Table) bool {
	if a.Len() != b.Len() || a.D != b.D {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if record.CompareTables(a, i, b, i, a.D) != 0 {
			return false
		}
	}
	return true
}

func TestPassCountMatchesTheory(t *testing.T) {
	t.Parallel()
	// With r runs and fan-in f, passes should be ceil(log_f r).
	d := newDisk()
	n := 4096
	rowBytes := record.RowBytes(2)
	memRows := 64
	mem := memRows * rowBytes
	block := mem / 8 // fan-in = 8-1 = 7
	d.Put("f", randomTable(5, n, 2, 1000))
	passes := SortBudget(d, "f", mem, block)
	runs := (n + memRows - 1) / memRows // 64 runs
	fanIn := mem/block - 1
	want := int(math.Ceil(math.Log(float64(runs)) / math.Log(float64(fanIn))))
	if passes != want {
		t.Fatalf("passes = %d, want %d (runs=%d fanIn=%d)", passes, want, runs, fanIn)
	}
}
