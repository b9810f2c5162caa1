package extsort

import (
	"testing"

	"repro/internal/record"
)

// benchExternalSort times a multi-pass external sort of 5 columns: as
// generated (50-bit keys: radix runs, loser-tree merges) or, with
// wide, with every value's top bit set (160-bit keys: comparison runs,
// heap merges).
func benchExternalSort(b *testing.B, wide bool) {
	b.Helper()
	const n, cols = 50_000, 5
	src := randomTable(17, n, cols, 1000)
	if wide {
		for i := 0; i < n; i++ {
			for j := 0; j < cols; j++ {
				src.Row(i)[j] |= 1 << 31
			}
		}
	}
	rowBytes := record.RowBytes(cols)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := newDisk()
		d.Put("f", src.Clone())
		b.StartTimer()
		SortBudget(d, "f", 4096*rowBytes, 256*rowBytes)
	}
	b.SetBytes(int64(n * rowBytes))
}

func BenchmarkExternalSortKernels(b *testing.B) { benchExternalSort(b, false) }
func BenchmarkExternalSortHeap(b *testing.B)    { benchExternalSort(b, true) }
