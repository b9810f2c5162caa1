package colstore

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/record"
)

// splitmix64 gives the tests a deterministic value stream.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// sortedTable builds a sorted aggregated table shaped like a view
// slice: leading columns low-cardinality (long runs), deeper columns
// wider, measures clustered around a base.
func sortedTable(n int, cards []int, seed uint64) *record.Table {
	t := record.New(len(cards), n)
	row := make([]uint32, len(cards))
	for i := 0; i < n; i++ {
		x := splitmix64(seed + uint64(i))
		for j, c := range cards {
			x = splitmix64(x)
			row[j] = uint32(x % uint64(c))
		}
		t.Append(row, 1000+int64(x%4096))
	}
	t.Sort()
	return record.AggregateSortedOp(t, t.D, record.OpSum)
}

func TestRoundTrip(t *testing.T) {
	t.Parallel()
	for _, n := range []int{0, 1, 2, 100, 4097} {
		src := sortedTable(n, []int{4, 8, 300, 70000}, uint64(n)+1)
		s := Encode(src)
		if err := s.Validate(); err != nil {
			t.Fatalf("n=%d: valid slice rejected: %v", n, err)
		}
		if got := s.Decode(); !record.Equal(got, src) {
			t.Fatalf("n=%d: decode mismatch", n)
		}
		if s.Len() != src.Len() || s.D() != src.D {
			t.Fatalf("n=%d: shape %dx%d, want %dx%d", n, s.Len(), s.D(), src.Len(), src.D)
		}
	}
}

func TestRandomAccessAndRanges(t *testing.T) {
	t.Parallel()
	src := sortedTable(500, []int{3, 5, 1000}, 7)
	s := Encode(src)
	n := src.Len()
	for i := 0; i < n; i++ {
		for j := 0; j < src.D; j++ {
			if got, want := s.Dim(i, j), src.Dim(i, j); got != want {
				t.Fatalf("Dim(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
		if got, want := s.Meas(i), src.Meas(i); got != want {
			t.Fatalf("Meas(%d) = %d, want %d", i, got, want)
		}
	}
	for _, r := range [][2]int{{0, 0}, {0, n}, {n / 3, 2 * n / 3}, {n - 1, n}} {
		got := s.DecodeRange(r[0], r[1])
		want := src.Sub(r[0], r[1])
		if !record.Equal(got, want) {
			t.Fatalf("DecodeRange(%d,%d) mismatch", r[0], r[1])
		}
		rb := s.RangeBytes(r[0], r[1])
		if r[1] > r[0] && (rb <= 0 || rb > s.Bytes()+SliceHeaderBytes) {
			t.Fatalf("RangeBytes(%d,%d) = %d out of range (slice %d)", r[0], r[1], rb, s.Bytes())
		}
	}
}

func TestNegativeAndExtremeMeasures(t *testing.T) {
	t.Parallel()
	src := record.New(1, 4)
	src.Append([]uint32{0}, -1<<62)
	src.Append([]uint32{1}, 1<<62)
	src.Append([]uint32{2}, 0)
	src.Append([]uint32{3}, -7)
	s := Encode(src)
	if got := s.Decode(); !record.Equal(got, src) {
		t.Fatal("extreme measure round trip failed")
	}
}

func TestCompressionOnSortedSlices(t *testing.T) {
	t.Parallel()
	src := sortedTable(20000, []int{2, 4, 8, 16, 100, 100, 100, 100}, 99)
	s := Encode(src)
	if s.Bytes() >= src.Bytes() {
		t.Fatalf("columnar %d bytes >= row %d bytes on a sorted slice", s.Bytes(), src.Bytes())
	}
	// Leading column of a sorted low-cardinality slice must pick RLE.
	if s.Cols[0].Kind != KindRLE {
		t.Fatalf("leading sorted column not RLE (kind %d)", s.Cols[0].Kind)
	}
}

func TestLeadingRuns(t *testing.T) {
	t.Parallel()
	src := sortedTable(3000, []int{5, 7, 5000}, 3)
	s := Encode(src)
	vals, starts := s.LeadingRuns()
	if len(starts) != len(vals)+1 || starts[len(starts)-1] != src.Len() {
		t.Fatalf("run directory shape: %d vals, %d starts, last %d", len(vals), len(starts), starts[len(starts)-1])
	}
	k := 0
	for i := 0; i < src.Len(); i++ {
		for i >= starts[k+1] {
			k++
		}
		if src.Dim(i, 0) != vals[k] {
			t.Fatalf("row %d: run directory says %d, table says %d", i, vals[k], src.Dim(i, 0))
		}
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	t.Parallel()
	src := sortedTable(400, []int{4, 9, 700}, 11)
	mutations := []func(*Slice){
		func(s *Slice) { s.NumRows++ },
		func(s *Slice) { s.Cols[0].Ends = s.Cols[0].Ends[:len(s.Cols[0].Ends)-1] },
		func(s *Slice) { s.Cols[0].Ends[0] = 0 },
		func(s *Slice) { s.Cols[2].Words = s.Cols[2].Words[:1] },
		func(s *Slice) { s.MeasWords = nil },
		func(s *Slice) { s.Cols[1].Kind = 9 },
		func(s *Slice) { s.Cols[1].Width = 60 },
	}
	for k, mutate := range mutations {
		s := Encode(src)
		mutate(s)
		err := s.Validate()
		if err == nil {
			t.Fatalf("mutation %d: corrupt slice validated", k)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("mutation %d: error %v does not wrap ErrCorrupt", k, err)
		}
	}
}

func TestChecksumAndCorrupt(t *testing.T) {
	t.Parallel()
	src := sortedTable(300, []int{4, 9, 700}, 13)
	s := Encode(src)
	sum := s.Checksum()
	for _, mask := range []uint64{0, 1, 12345, 1 << 40} {
		bad := s.Clone()
		if !bad.Corrupt(mask) {
			t.Fatalf("mask %d: non-empty payload reported uncorruptible", mask)
		}
		if bad.Checksum() == sum {
			t.Fatalf("mask %d: corruption not visible in checksum", mask)
		}
	}
	if s.Checksum() != sum {
		t.Fatal("checksum not stable")
	}
	if s.Clone().Checksum() != sum {
		t.Fatal("clone changed checksum")
	}
}

func TestTableCacheSharedAndEqual(t *testing.T) {
	t.Parallel()
	src := sortedTable(200, []int{3, 50}, 17)
	s := Encode(src)
	a, b := s.Table(), s.Table()
	if a != b {
		t.Fatal("Table() did not cache the decode")
	}
	if !record.Equal(a, src) {
		t.Fatal("cached decode mismatch")
	}
	if fresh := s.Decode(); fresh == a {
		t.Fatal("Decode() returned the shared cache")
	}
}

func TestStoreInterface(t *testing.T) {
	t.Parallel()
	src := sortedTable(100, []int{4, 40}, 19)
	var st Store = TableStore{T: src}
	if st.Len() != src.Len() || st.D() != src.D || st.Bytes() != src.Bytes() || st.Table() != src {
		t.Fatal("TableStore adapter broken")
	}
	st = Encode(src)
	if st.Len() != src.Len() || st.D() != src.D {
		t.Fatal("Slice Store shape broken")
	}
	if !record.Equal(st.Table(), src) {
		t.Fatal("Slice Store decode broken")
	}
}

// TestStateColumnRoundTrip: a holistic table's sketch blobs live in
// the slice next to its rows. They round-trip through Encode and every
// decode, count in the modelled size and the checksum, and a damaged
// offset directory fails Validate.
func TestStateColumnRoundTrip(t *testing.T) {
	t.Parallel()
	src := sortedTable(200, []int{4, 40}, 23)
	for i := 0; i < src.Len(); i += 3 {
		src.SetMeas(i, 0)
		src.SetState(i, []byte(fmt.Sprintf("blob-%d", i)))
	}
	s := Encode(src)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.StateBytes() != src.StateBytes() || s.StateBytes() == 0 {
		t.Fatalf("slice holds %d state bytes, table %d", s.StateBytes(), src.StateBytes())
	}
	plain := Encode(src.Clone())
	plain.StateEnds, plain.State = nil, nil
	if s.Bytes() != plain.Bytes()+s.StateBytes() {
		t.Fatalf("Bytes %d does not add the blobs to %d", s.Bytes(), plain.Bytes())
	}
	if !record.Equal(s.Decode(), src) || !record.Equal(s.Clone().Decode(), src) {
		t.Fatal("state column lost in decode")
	}
	n := src.Len()
	for _, r := range [][2]int{{0, 1}, {1, 3}, {5, n / 2}, {n - 1, n}} {
		if !record.Equal(s.DecodeRange(r[0], r[1]), src.Window(r[0], r[1])) {
			t.Fatalf("DecodeRange%v lost the state column", r)
		}
		if got, want := s.RangeBytes(r[0], r[1]), plain.RangeBytes(r[0], r[1])+src.Window(r[0], r[1]).StateBytes(); got != want {
			t.Fatalf("RangeBytes%v = %d, want %d", r, got, want)
		}
	}
	sum := s.Checksum()
	c := s.Clone()
	c.State[0] ^= 1
	if c.Checksum() == sum {
		t.Fatal("checksum misses a flipped blob byte")
	}
	c = s.Clone()
	c.StateEnds[1], c.StateEnds[2] = c.StateEnds[2], c.StateEnds[1]-1
	if err := c.Validate(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("decreasing offsets: %v", err)
	}
	c = s.Clone()
	c.StateEnds = c.StateEnds[:10]
	if err := c.Validate(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short offset directory: %v", err)
	}
}
