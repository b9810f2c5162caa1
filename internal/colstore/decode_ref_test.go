package colstore

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/record"
)

// refDecodeRange is the row-at-a-time decoder DecodeRange replaced: for
// every row, walk each column's run cursor or unpack its packed value,
// then Append the row. DecodeRange must produce the same table.
func refDecodeRange(s *Slice, lo, hi int) *record.Table {
	t := record.New(s.NumCols, hi-lo)
	row := make([]uint32, s.NumCols)
	runAt := make([]int, s.NumCols)
	for j := range s.Cols {
		c := &s.Cols[j]
		if c.Kind == KindRLE {
			runAt[j] = sort.Search(len(c.Ends), func(k int) bool { return int(c.Ends[k]) > lo })
		}
	}
	for i := lo; i < hi; i++ {
		for j := range s.Cols {
			c := &s.Cols[j]
			if c.Kind == KindRLE {
				for i >= int(c.Ends[runAt[j]]) {
					runAt[j]++
				}
				row[j] = uint32(unpack(c.Words, runAt[j], c.Width))
			} else {
				row[j] = uint32(unpack(c.Words, i, c.Width))
			}
		}
		t.Append(row, s.Meas(i))
	}
	return t
}

// decodeTestSlice builds a slice column by column, so both encodings
// appear at every width: column 0 is RLE at width w (runs of 1-5 rows,
// run values drawn below 2^w with the top value present), column 1 is
// packed at width w, column 2 is RLE at width 0 and column 3 packed at
// width 0. meas picks the measures.
func decodeTestSlice(rng *rand.Rand, n int, w uint8, meas []int64) *Slice {
	draw := func() uint64 {
		if w == 0 {
			return 0
		}
		return rng.Uint64() & (1<<w - 1)
	}
	s := &Slice{NumCols: 4, NumRows: n, Cols: make([]Column, 4)}

	var runVals []uint64
	var ends []uint32
	for i := 0; i < n; {
		i = min(n, i+1+rng.Intn(5))
		runVals = append(runVals, draw())
		ends = append(ends, uint32(i))
	}
	if w > 0 {
		runVals[rng.Intn(len(runVals))] = 1<<w - 1
	}
	s.Cols[0] = Column{Kind: KindRLE, Width: w, N: n, Words: refPack(runVals, w), Ends: ends}
	s.Cols[2] = Column{Kind: KindRLE, Width: 0, N: n, Ends: []uint32{uint32(n)}}

	vals := make([]uint64, n)
	for i := range vals {
		vals[i] = draw()
	}
	if w > 0 {
		vals[rng.Intn(n)] = 1<<w - 1
	}
	s.Cols[1] = Column{Kind: KindPacked, Width: w, N: n, Words: refPack(vals, w)}
	s.Cols[3] = Column{Kind: KindPacked, Width: 0, N: n}

	minv := meas[0]
	for _, m := range meas {
		minv = min(minv, m)
	}
	offs := make([]uint64, n)
	var span uint64
	for i, m := range meas {
		offs[i] = uint64(m) - uint64(minv)
		span = max(span, offs[i])
	}
	s.MeasMin, s.MeasWidth = minv, bitsFor(span)
	s.MeasWords = refPack(offs, s.MeasWidth)
	return s
}

// TestDecodeRangeMatchesRowDecoder checks DecodeRange against the old
// row-at-a-time decoder on every sub-range [lo, hi) — empty ones, ones
// inside a run, ones straddling runs and word boundaries — for RLE and
// packed columns of every width 0-32 and measures of width 0 (constant,
// at either int64 extreme), 64 (both extremes present) and in between.
func TestDecodeRangeMatchesRowDecoder(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(29))
	const n = 37 // odd, so packed values straddle word boundaries
	measures := []struct {
		name string
		gen  func(i int) int64
	}{
		{"const-min", func(int) int64 { return math.MinInt64 }},
		{"const-max", func(int) int64 { return math.MaxInt64 }},
		{"extremes", func(i int) int64 {
			switch i % 3 {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			}
			return int64(rng.Uint64())
		}},
		{"small", func(int) int64 { return int64(rng.Intn(1000)) - 500 }},
	}
	for w := uint8(0); w <= 32; w++ {
		for _, m := range measures {
			name, gen := m.name, m.gen
			meas := make([]int64, n)
			for i := range meas {
				meas[i] = gen(i)
			}
			s := decodeTestSlice(rng, n, w, meas)
			if err := s.Validate(); err != nil {
				t.Fatalf("w=%d %s: test slice invalid: %v", w, name, err)
			}
			switch name {
			case "const-min", "const-max":
				if s.MeasWidth != 0 {
					t.Fatalf("%s: measure width %d, want 0", name, s.MeasWidth)
				}
			case "extremes":
				if s.MeasWidth != 64 {
					t.Fatalf("%s: measure width %d, want 64", name, s.MeasWidth)
				}
			}
			for lo := 0; lo <= n; lo++ {
				for hi := lo; hi <= n; hi++ {
					got, want := s.DecodeRange(lo, hi), refDecodeRange(s, lo, hi)
					if !record.Equal(got, want) {
						t.Fatalf("w=%d %s [%d,%d): DecodeRange %v, row decoder %v", w, name, lo, hi, got, want)
					}
				}
			}
		}
	}
}

// TestDecodeRangeOfEncodedTables round-trips encoded tables through
// DecodeRange on random sub-ranges, against the row decoder.
func TestDecodeRangeOfEncodedTables(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 30; trial++ {
		n, d := rng.Intn(3000), 1+rng.Intn(6)
		tb := record.New(d, n)
		row := make([]uint32, d)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = uint32(rng.Intn(1 << (3 * j)))
			}
			tb.Append(row, rng.Int63n(1<<40)-1<<39)
		}
		tb.Sort()
		s := Encode(tb)
		if !record.Equal(s.Decode(), tb) {
			t.Fatalf("trial %d: Decode does not round-trip", trial)
		}
		for k := 0; k < 20; k++ {
			lo := rng.Intn(n + 1)
			hi := lo + rng.Intn(n-lo+1)
			if !record.Equal(s.DecodeRange(lo, hi), refDecodeRange(s, lo, hi)) {
				t.Fatalf("trial %d: [%d,%d) differs from the row decoder", trial, lo, hi)
			}
		}
	}
}

// BenchmarkDecodeRange decodes a sorted d=6 slice (leading columns RLE,
// trailing ones packed) with DecodeRange and with the row decoder.
func BenchmarkDecodeRange(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	cards := []int{256, 128, 64, 32, 16, 8}
	tb := record.New(len(cards), 40000)
	row := make([]uint32, len(cards))
	for i := 0; i < 40000; i++ {
		for j, c := range cards {
			row[j] = uint32(rng.Intn(c))
		}
		tb.Append(row, rng.Int63n(5000))
	}
	tb.Sort()
	s := Encode(tb)
	b.Run("columns", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.DecodeRange(0, s.Len())
		}
		b.ReportMetric(float64(b.N)*float64(s.Len())/b.Elapsed().Seconds(), "rows/s")
	})
	b.Run("rows", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refDecodeRange(s, 0, s.Len())
		}
		b.ReportMetric(float64(b.N)*float64(s.Len())/b.Elapsed().Seconds(), "rows/s")
	})
}
