package colstore

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/record"
)

// refPack bit-packs vals at w bits per value, LSB-first.
func refPack(vals []uint64, w uint8) []uint64 {
	nw := wordsFor(len(vals), w)
	if nw == 0 {
		return nil
	}
	words := make([]uint64, nw)
	for i, v := range vals {
		bit := i * int(w)
		word, off := bit>>6, uint(bit&63)
		words[word] |= v << off
		if off+uint(w) > 64 {
			words[word+1] |= v >> (64 - off)
		}
	}
	return words
}

// refEncode is the staging encoder Encode replaced: it copies each
// column and the measures into uint64 arrays, then packs those. Encode
// must produce the same Slice field for field.
func refEncode(t *record.Table) *Slice {
	n := t.Len()
	s := &Slice{NumCols: t.D, NumRows: n, Cols: make([]Column, t.D)}
	vals := make([]uint64, n)
	for j := 0; j < t.D; j++ {
		var maxv uint64
		runs := 0
		for i := 0; i < n; i++ {
			v := uint64(t.Dim(i, j))
			vals[i] = v
			if v > maxv {
				maxv = v
			}
			if i == 0 || vals[i] != vals[i-1] {
				runs++
			}
		}
		w := bitsFor(maxv)
		col := Column{Width: w, N: n}
		if packedBytes(runs, w)+4*runs < packedBytes(n, w) {
			col.Kind = KindRLE
			rv := make([]uint64, 0, runs)
			ends := make([]uint32, 0, runs)
			for i := 0; i < n; i++ {
				if i == 0 || vals[i] != vals[i-1] {
					if i > 0 {
						ends = append(ends, uint32(i))
					}
					rv = append(rv, vals[i])
				}
			}
			if n > 0 {
				ends = append(ends, uint32(n))
			}
			col.Words = refPack(rv, w)
			col.Ends = ends
		} else {
			col.Kind = KindPacked
			col.Words = refPack(vals, w)
		}
		s.Cols[j] = col
	}
	if n > 0 {
		minv, maxv := t.Meas(0), t.Meas(0)
		for i := 1; i < n; i++ {
			m := t.Meas(i)
			if m < minv {
				minv = m
			}
			if m > maxv {
				maxv = m
			}
		}
		s.MeasMin = minv
		s.MeasWidth = bitsFor(uint64(maxv) - uint64(minv))
		mv := make([]uint64, n)
		for i := 0; i < n; i++ {
			mv[i] = uint64(t.Meas(i)) - uint64(minv)
		}
		s.MeasWords = refPack(mv, s.MeasWidth)
	}
	return s
}

// columnTable builds an n-row table whose column j holds col[j](i) and
// whose measures are meas(i).
func columnTable(n int, meas func(int) int64, cols ...func(int) uint32) *record.Table {
	t := record.New(len(cols), n)
	row := make([]uint32, len(cols))
	for i := 0; i < n; i++ {
		for j, c := range cols {
			row[j] = c(i)
		}
		t.Append(row, meas(i))
	}
	return t
}

func TestEncodeMatchesStagingEncoder(t *testing.T) {
	t.Parallel()
	one := func(int) int64 { return 1 }
	zero := func(int) uint32 { return 0 }
	same := func(int) uint32 { return 77 }
	distinct := func(i int) uint32 { return uint32(i) }
	top := func(i int) uint32 { return 1<<31 | uint32(i/2) }
	cases := map[string]*record.Table{
		"empty":         sortedTable(0, []int{4, 9}, 1),
		"one row":       sortedTable(1, []int{4, 9}, 2),
		"zero columns":  columnTable(50, one),
		"width 0":       columnTable(300, one, zero, distinct, zero),
		"all equal":     columnTable(300, one, same, same),
		"all distinct":  columnTable(300, func(i int) int64 { return int64(i) }, distinct),
		"wide distinct": columnTable(129, one, func(i int) uint32 { return math.MaxUint32 - uint32(i) }),
		// 32-bit runs of two rows: RLE costs 4+4 B per run, packing 4 B
		// per row, a tie, which packing wins.
		"rle tie": columnTable(200, one, top),
		// The first two runs merged, one run fewer than the tie: RLE wins.
		"rle below tie": columnTable(200, one, func(i int) uint32 { return top(max(i, 2)) }),
		"extreme measures": columnTable(4, func(i int) int64 {
			return []int64{math.MinInt64, math.MaxInt64, 0, -1}[i]
		}, distinct),
		"negative measures": columnTable(100, func(i int) int64 { return -int64(i) * 1_000_003 }, distinct),
	}
	for seed := uint64(1); seed <= 8; seed++ {
		n := int(splitmix64(seed) % 3000)
		cases["random "+string(rune('a'+seed))] = sortedTable(n, []int{1, 3, 40, 1000, 70000, 1 << 20}, seed)
	}
	for name, src := range cases {
		got, want := Encode(src), refEncode(src)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Encode differs from the staging encoder", name)
			continue
		}
		if got.Bytes() != want.Bytes() {
			t.Errorf("%s: %d bytes, staging encoder %d", name, got.Bytes(), want.Bytes())
		}
		if !record.Equal(got.Decode(), src) {
			t.Errorf("%s: round trip failed", name)
		}
	}
	if k := Encode(cases["rle tie"]).Cols[0].Kind; k != KindPacked {
		t.Errorf("rle tie: kind %d, want packed", k)
	}
	if k := Encode(cases["rle below tie"]).Cols[0].Kind; k != KindRLE {
		t.Errorf("rle below tie: kind %d, want RLE", k)
	}
}
