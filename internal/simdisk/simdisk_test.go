package simdisk

import (
	"testing"

	"repro/internal/colstore"
	"repro/internal/costmodel"
	"repro/internal/record"
)

func newDisk() *Disk { return New(costmodel.NewClock(costmodel.Default())) }

func table(n int) *record.Table {
	t := record.New(2, n)
	for i := 0; i < n; i++ {
		t.Append([]uint32{uint32(i), uint32(i * 2)}, int64(i))
	}
	return t
}

func TestPutTakeRoundTrip(t *testing.T) {
	d := newDisk()
	in := table(10)
	want := in.Clone()
	d.Put("f", in)
	if !d.Has("f") || d.Len("f") != 10 || d.Cols("f") != 2 {
		t.Fatal("metadata wrong after Put")
	}
	got, ok := d.Take("f")
	if !ok || !record.Equal(got, want) {
		t.Fatal("Take returned wrong table")
	}
	if d.Has("f") {
		t.Fatal("Take did not remove file")
	}
	if _, ok := d.Take("f"); ok {
		t.Fatal("Take of missing file succeeded")
	}
}

func TestGetDoesNotRemove(t *testing.T) {
	d := newDisk()
	d.Put("f", table(5))
	if _, ok := d.Get("f"); !ok {
		t.Fatal("Get failed")
	}
	if !d.Has("f") {
		t.Fatal("Get removed the file")
	}
}

func TestAppendCreatesAndExtends(t *testing.T) {
	d := newDisk()
	d.Append("f", table(3))
	d.Append("f", table(2))
	if d.Len("f") != 5 {
		t.Fatalf("Len = %d, want 5", d.Len("f"))
	}
}

func TestAppendClonesOnCreate(t *testing.T) {
	d := newDisk()
	src := table(3)
	d.Append("f", src)
	src.SetMeas(0, 999)
	got := d.MustGet("f")
	if got.Meas(0) == 999 {
		t.Fatal("Append aliased caller's table on create")
	}
}

func TestReadRange(t *testing.T) {
	d := newDisk()
	d.Put("f", table(10))
	sub := d.ReadRange("f", 3, 6)
	if sub.Len() != 3 || sub.Dim(0, 0) != 3 {
		t.Fatalf("ReadRange wrong: %v", sub)
	}
	// Charged only the range, not the file.
	st := d.Stats()
	if st.BytesRead != int64(3*record.RowBytes(2)) {
		t.Fatalf("BytesRead = %d, want %d", st.BytesRead, 3*record.RowBytes(2))
	}
}

func TestReadRangePanicsOutOfBounds(t *testing.T) {
	d := newDisk()
	d.Put("f", table(5))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.ReadRange("f", 2, 9)
}

func TestRenameAndRemove(t *testing.T) {
	d := newDisk()
	d.Put("a", table(4))
	d.Rename("a", "b")
	if d.Has("a") || !d.Has("b") {
		t.Fatal("Rename failed")
	}
	if !d.Remove("b") || d.Remove("b") {
		t.Fatal("Remove semantics wrong")
	}
}

func TestStatsAndClockCharging(t *testing.T) {
	clk := costmodel.NewClock(costmodel.Default())
	d := New(clk)
	tb := table(100)
	bytes := tb.Bytes()
	d.Put("f", tb)
	st := d.Stats()
	if st.Writes != 1 || st.BytesWritten != int64(bytes) {
		t.Fatalf("write stats wrong: %+v", st)
	}
	if clk.DiskSeconds() <= 0 {
		t.Fatal("Put did not charge disk time")
	}
	before := clk.DiskSeconds()
	d.MustGet("f")
	if clk.DiskSeconds() <= before {
		t.Fatal("Get did not charge disk time")
	}
	st = d.Stats()
	if st.Reads != 1 || st.BytesRead != int64(bytes) {
		t.Fatalf("read stats wrong: %+v", st)
	}
}

func TestMetadataOpsAreFree(t *testing.T) {
	clk := costmodel.NewClock(costmodel.Default())
	d := New(clk)
	d.Put("f", table(10))
	before := clk.Seconds()
	d.Has("f")
	d.Len("f")
	d.Cols("f")
	d.Files()
	d.Rename("f", "g")
	d.Remove("g")
	if clk.Seconds() != before {
		t.Fatal("metadata operations charged I/O time")
	}
}

func TestFilesSortedAndTotalBytes(t *testing.T) {
	d := newDisk()
	d.Put("b", table(2))
	d.Put("a", table(3))
	fs := d.Files()
	if len(fs) != 2 || fs[0] != "a" || fs[1] != "b" {
		t.Fatalf("Files = %v", fs)
	}
	if total := d.StoredBytes("a") + d.StoredBytes("b"); total != 5*record.RowBytes(2) {
		t.Fatalf("stored bytes = %d", total)
	}
}

func TestMustTakePanicsOnMissing(t *testing.T) {
	d := newDisk()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.MustTake("nope")
}

func TestMutateChargesDeclaredBytes(t *testing.T) {
	clk := costmodel.NewClock(costmodel.Default())
	d := New(clk)
	d.Put("f", table(100))
	before := d.Stats()
	d.Mutate("f", 36, func(tb *record.Table) *record.Table {
		tb.SetMeas(0, tb.Meas(0)+5)
		return tb
	})
	st := d.Stats()
	if st.BytesWritten-before.BytesWritten != 36 {
		t.Fatalf("Mutate charged %d bytes, want 36", st.BytesWritten-before.BytesWritten)
	}
	if d.MustGet("f").Meas(0) != 5 {
		t.Fatal("mutation lost")
	}
}

func TestMutateReplacement(t *testing.T) {
	d := newDisk()
	d.Put("f", table(10))
	d.SetMeta("f", "sample")
	d.Mutate("f", 1, func(tb *record.Table) *record.Table {
		return tb.Sub(5, 10)
	})
	if d.Len("f") != 5 {
		t.Fatalf("Len = %d after replacing mutation", d.Len("f"))
	}
	if d.Meta("f") != "sample" {
		t.Fatal("Mutate dropped metadata")
	}
}

func TestMutateMissingPanics(t *testing.T) {
	d := newDisk()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Mutate("nope", 1, func(tb *record.Table) *record.Table { return tb })
}

func TestMetaLifecycle(t *testing.T) {
	d := newDisk()
	d.Put("f", table(3))
	if d.Meta("f") != nil {
		t.Fatal("fresh file has metadata")
	}
	d.SetMeta("f", 42)
	if d.Meta("f") != 42 {
		t.Fatal("SetMeta lost")
	}
	// Metadata follows renames...
	d.Rename("f", "g")
	if d.Meta("g") != 42 {
		t.Fatal("metadata lost on rename")
	}
	// ...but not replacement.
	d.Put("g", table(3))
	if d.Meta("g") != nil {
		t.Fatal("metadata survived Put")
	}
	if d.Meta("missing") != nil {
		t.Fatal("missing file has metadata")
	}
}

func TestSetMetaMissingPanics(t *testing.T) {
	d := newDisk()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.SetMeta("nope", 1)
}

func TestMustGetPanicsOnMissing(t *testing.T) {
	d := newDisk()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.MustGet("nope")
}

func TestRenamePanicsOnMissing(t *testing.T) {
	d := newDisk()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Rename("a", "b")
}

func TestLenColsOnMissing(t *testing.T) {
	d := newDisk()
	if d.Len("x") != -1 || d.Cols("x") != -1 {
		t.Fatal("missing file metadata should be -1")
	}
}

// sortedTable builds a sorted, aggregated table so sealing compresses.
func sortedTable(n int) *record.Table {
	t := record.New(3, n)
	for i := 0; i < n; i++ {
		t.Append([]uint32{uint32(i / 100), uint32(i / 10 % 10), uint32(i % 10)}, int64(i))
	}
	t.Sort()
	return record.AggregateSortedOp(t, t.D, record.OpSum)
}

func TestSealCompressesAndRoundTrips(t *testing.T) {
	d := newDisk()
	src := sortedTable(2000)
	want := src.Clone()
	d.Put("f", src)
	rowBytes := d.StoredBytes("f")
	if d.Sealed("f") {
		t.Fatal("fresh Put reported sealed")
	}
	d.Seal("f")
	if !d.Sealed("f") {
		t.Fatal("Sealed false after Seal")
	}
	if d.StoredBytes("f") >= rowBytes {
		t.Fatalf("sealed %d bytes >= row %d bytes", d.StoredBytes("f"), rowBytes)
	}
	if got := d.MustGet("f"); !record.Equal(got, want) {
		t.Fatal("Get after Seal mismatch")
	}
	if d.Len("f") != want.Len() || d.Cols("f") != want.D {
		t.Fatal("metadata wrong on sealed file")
	}
	got := d.MustTake("f")
	if !record.Equal(got, want) {
		t.Fatal("Take after Seal mismatch")
	}
}

func TestSealedReadsChargeCompressedBytes(t *testing.T) {
	d := newDisk()
	d.Put("f", sortedTable(2000))
	d.Seal("f")
	cb := d.StoredBytes("f")
	before := d.Stats()
	d.MustGet("f")
	st := d.Stats()
	if got := st.BytesRead - before.BytesRead; got != int64(cb) {
		t.Fatalf("sealed Get charged %d bytes, want compressed %d", got, cb)
	}
	s, ok := d.GetSlice("f")
	if !ok || s.Bytes() != cb {
		t.Fatal("GetSlice broken on sealed file")
	}
	before = d.Stats()
	_, idx, ok := d.ReadLeading("f")
	if !ok {
		t.Fatal("ReadLeading failed on sealed file")
	}
	if d.Stats() != before {
		t.Fatal("ReadLeading charged the disk")
	}
	if idx <= 0 || idx >= cb {
		t.Fatalf("ReadLeading costs %d bytes, want in (0,%d)", idx, cb)
	}
	before = d.Stats()
	sub := d.ReadRange("f", 10, 20)
	if sub.Len() != 10 {
		t.Fatal("sealed ReadRange wrong length")
	}
	st = d.Stats()
	rb := st.BytesRead - before.BytesRead
	if rb <= 0 || rb > int64(cb)+int64(colstore.SliceHeaderBytes) {
		t.Fatalf("sealed ReadRange charged %d bytes", rb)
	}
}

func TestGetSliceOnRowFile(t *testing.T) {
	d := newDisk()
	d.Put("f", table(5))
	if _, ok := d.GetSlice("f"); ok {
		t.Fatal("GetSlice succeeded on row file")
	}
	if _, _, ok := d.ReadLeading("f"); ok {
		t.Fatal("ReadLeading succeeded on row file")
	}
	if _, ok := d.GetSlice("missing"); ok {
		t.Fatal("GetSlice succeeded on missing file")
	}
}

func TestAppendAndMutateMaterializeSealed(t *testing.T) {
	d := newDisk()
	d.Put("f", sortedTable(500))
	d.Seal("f")
	d.Append("f", sortedTable(500).Sub(0, 10))
	if d.Sealed("f") {
		t.Fatal("Append left the file sealed")
	}
	if d.Len("f") != sortedTable(500).Len()+10 {
		t.Fatal("Append lost rows on sealed file")
	}
	d.Seal("f")
	d.Mutate("f", 8, func(tb *record.Table) *record.Table {
		tb.SetMeas(0, -99)
		return tb
	})
	if d.Sealed("f") {
		t.Fatal("Mutate left the file sealed")
	}
	if d.MustGet("f").Meas(0) != -99 {
		t.Fatal("Mutate lost on sealed file")
	}
}

func TestTakeSealedReturnsFreshDecode(t *testing.T) {
	d := newDisk()
	d.Put("f", sortedTable(300))
	d.Seal("f")
	shared := d.MustGet("f")
	taken := d.MustTake("f")
	if taken == shared {
		t.Fatal("Take returned the shared cached decode")
	}
	taken.SetMeas(0, 12345)
	if shared.Meas(0) == 12345 {
		t.Fatal("Take aliased the shared cache")
	}
}

func TestPutSlice(t *testing.T) {
	d := newDisk()
	src := sortedTable(400)
	s := colstore.Encode(src)
	d.PutSlice("f", s)
	if !d.Sealed("f") || d.StoredBytes("f") != s.Bytes() {
		t.Fatal("PutSlice metadata wrong")
	}
	st := d.Stats()
	if st.BytesWritten != int64(s.Bytes()) {
		t.Fatalf("PutSlice charged %d bytes, want %d", st.BytesWritten, s.Bytes())
	}
	if !record.Equal(d.MustGet("f"), src) {
		t.Fatal("PutSlice content mismatch")
	}
}

func TestSealIdempotent(t *testing.T) {
	d := newDisk()
	d.Put("f", sortedTable(200))
	d.Seal("f")
	before := d.Stats()
	d.Seal("f")
	if !d.Sealed("f") {
		t.Fatal("second Seal unsealed the file")
	}
	if d.Stats() != before {
		t.Fatal("second Seal charged I/O")
	}
}

// TestReadWindowCostsWhatReadRangeCharges: the uncharged readers report
// exactly what the charged ones bill, return the same rows, and a
// sealed file is decoded into its shared cache once for any number of
// windows.
func TestReadWindowCostsWhatReadRangeCharges(t *testing.T) {
	for _, sealed := range []bool{false, true} {
		d := newDisk()
		d.Put("f", sortedTable(500))
		if sealed {
			d.Seal("f")
		}
		for _, r := range [][2]int{{0, 500}, {10, 20}, {250, 251}, {499, 500}, {7, 7}} {
			before := d.Stats()
			win, cost := d.ReadWindow("f", r[0], r[1])
			if d.Stats() != before {
				t.Fatal("ReadWindow charged the disk")
			}
			want := d.ReadRange("f", r[0], r[1])
			if got := d.Stats().BytesRead - before.BytesRead; got != int64(cost) {
				t.Fatalf("sealed=%v %v: ReadWindow costs %d, ReadRange charged %d", sealed, r, cost, got)
			}
			if !record.Equal(win, want) {
				t.Fatalf("sealed=%v %v: window rows differ from ReadRange", sealed, r)
			}
		}
		if sealed {
			decoded := d.DecodedBytes()
			for i := 0; i < 10; i++ {
				d.ReadWindow("f", i, i+100)
			}
			if decoded != int64(d.MustGet("f").Bytes()) || d.DecodedBytes() != decoded {
				t.Fatalf("windows decoded %d then %d bytes, want the file's %d once", decoded, d.DecodedBytes(), d.MustGet("f").Bytes())
			}
		}

		before := d.Stats()
		tb, cost, ok := d.Read("f")
		if !ok || d.Stats() != before {
			t.Fatal("Read failed or charged the disk")
		}
		d.ChargeRead(cost)
		replayed := d.Stats()
		if got := d.MustGet("f"); got != tb {
			t.Fatal("Read and Get hand out different tables")
		}
		if d.Stats().BytesRead-replayed.BytesRead != replayed.BytesRead-before.BytesRead || replayed.Reads != before.Reads+1 {
			t.Fatal("ChargeRead of Read's cost differs from Get's charge")
		}
	}
}
