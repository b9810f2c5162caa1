package record

import (
	"sort"
	"testing"
)

// Microbenchmarks for the packed-key kernels. Each hot-path benchmark
// has a kernel variant (the path Sort / MergeSortedAggregateOp take on
// packable keys) and a comparison variant (the path for keys wider
// than 128 bits, called directly) so the speedup is measured in one
// `go test -bench` run.

func benchTable(seed int64, n, d, card int) *Table {
	return randomTable(seed, n, d, card)
}

func benchSort(b *testing.B, n, d, card int, radix bool) {
	b.Helper()
	src := benchTable(1, n, d, card)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := src.Clone()
		b.StartTimer()
		if radix {
			t.Sort()
		} else {
			sort.Sort(sorter{t})
		}
	}
	b.SetBytes(int64(n * RowBytes(d)))
}

func BenchmarkTableSortD8Radix(b *testing.B)      { benchSort(b, 100_000, 8, 64, true) }
func BenchmarkTableSortD8Comparison(b *testing.B) { benchSort(b, 100_000, 8, 64, false) }
func BenchmarkTableSortD4Radix(b *testing.B)      { benchSort(b, 100_000, 4, 1000, true) }
func BenchmarkTableSortD4Comparison(b *testing.B) { benchSort(b, 100_000, 4, 1000, false) }

func BenchmarkPackKeys(b *testing.B) {
	t := benchTable(2, 100_000, 8, 64)
	kp := MeasureKeyPlan(t)
	lo := make([]uint64, t.Len())
	var hi []uint64
	if kp.Wide() {
		hi = make([]uint64, t.Len())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		kp.PackKeys(t, hi, lo)
	}
	b.SetBytes(int64(t.Len() * RowBytes(t.D)))
}

func BenchmarkApplyPermutation(b *testing.B) {
	src := benchTable(3, 100_000, 8, 64)
	perm := make([]uint32, src.Len())
	for i := range perm {
		perm[i] = uint32(i)
	}
	rng := newBenchRng(3)
	for i := len(perm) - 1; i > 0; i-- {
		j := rng.next() % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	sc := new(sortScratch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		t := src.Clone()
		b.StartTimer()
		t.applyPermutation(perm, sc)
	}
	b.SetBytes(int64(src.Len() * RowBytes(src.D)))
}

// benchRng is a tiny splitmix64 so the benchmark does not depend on
// math/rand allocation behaviour inside the timed loop.
type benchRng struct{ s uint64 }

func newBenchRng(seed uint64) *benchRng { return &benchRng{s: seed} }
func (r *benchRng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func benchMerge(b *testing.B, k, rows, d, card int, tree bool) {
	b.Helper()
	tables := make([]*Table, k)
	for i := range tables {
		tables[i] = benchTable(int64(10+i), rows, d, card)
		tables[i].Sort()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tree {
			MergeSortedAggregateOp(tables, OpSum)
		} else {
			mergeSortedHeap(tables, d, k*rows, true, Agg{Op: OpSum})
		}
	}
	b.SetBytes(int64(k * rows * RowBytes(d)))
}

func BenchmarkMergeK8LoserTree(b *testing.B) { benchMerge(b, 8, 20_000, 4, 1000, true) }
func BenchmarkMergeK8Heap(b *testing.B)      { benchMerge(b, 8, 20_000, 4, 1000, false) }

func BenchmarkProject(b *testing.B) {
	t := benchTable(4, 100_000, 8, 64)
	cols := []int{6, 2, 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Project(cols)
	}
	b.SetBytes(int64(t.Len() * RowBytes(len(cols))))
}
