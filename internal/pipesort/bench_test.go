package pipesort

import (
	"testing"

	"repro/internal/costmodel"
	"repro/internal/estimate"
	"repro/internal/lattice"
	"repro/internal/simdisk"
)

func BenchmarkPlanFullLattice(b *testing.B) {
	for _, d := range []int{8, 10} {
		b.Run("d"+string(rune('0'+d/10))+string(rune('0'+d%10)), func(b *testing.B) {
			cards := make([]int, d)
			for i := range cards {
				cards[i] = 256 >> uint(i%4)
			}
			sizer := estimate.NewCardenas(1_000_000, cards)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree := Plan(d, lattice.Full(d), nil, lattice.AllViews(d), sizer)
				if tree.Len() != 1<<uint(d) {
					b.Fatal("bad tree")
				}
			}
		})
	}
}

func BenchmarkExecutePartition(b *testing.B) {
	d := 8
	cards := []int{64, 32, 16, 8, 8, 6, 6, 4}
	raw := randomRaw(1, 50_000, d, cards)
	sizer := estimate.NewCardenas(int64(raw.Len()), cards)
	tree := PlanPartition(0, d, sizer)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		disk := simdisk.New(costmodel.NewClock(costmodel.Default()))
		prepRoot(disk, raw, tree.Root.Order)
		b.StartTimer()
		ExecuteOpts(disk, tree, fileOf, Options{})
	}
}
