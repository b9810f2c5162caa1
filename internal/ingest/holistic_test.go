package ingest

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/lattice"
	"repro/internal/record"
	"repro/internal/sketch"
)

// holisticRows builds a deterministic fact table with value measures
// (below 128, where the quantile sketch's codes are exact).
func holisticRows(n, d int, cards []int, salt uint64) *record.Table {
	t := record.New(d, n)
	row := make([]uint32, d)
	x := salt | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			row[j] = uint32(next() % uint64(cards[j]))
		}
		t.Append(row, int64(next()%100))
	}
	return t
}

// TestIngestHolisticMatchesOracle builds a distinct-count cube, ingests
// two batches, and checks every group's estimate against a brute-force
// group-by over base+batches. Group cardinalities stay below the exact
// threshold, so estimates must be exact.
func TestIngestHolisticMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		op record.AggOp
	}{
		{record.OpDistinct},
		{record.OpQuantile},
	} {
		d, p := 3, 4
		cards := []int{6, 4, 3}
		base := holisticRows(800, d, cards, 7)
		m := cluster.New(p, costmodel.Default())
		n := base.Len()
		for r := 0; r < p; r++ {
			m.Proc(r).Disk().Put("raw", base.Sub(r*n/p, (r+1)*n/p))
		}
		ccfg := core.Config{D: d, Agg: tc.op}
		met, err := core.BuildCube(m, "raw", ccfg)
		if err != nil {
			t.Fatal(err)
		}
		icfg := ingestConfig(ccfg, met)

		all := record.New(d, 0)
		all.AppendTable(base)
		for _, bn := range []int{300, 150} {
			batch := holisticRows(bn, d, cards, uint64(bn)*13)
			if _, err := IngestBatch(m, batch, icfg); err != nil {
				t.Fatal(err)
			}
			all.AppendTable(batch)
		}

		for _, v := range lattice.AllViews(d) {
			oracle := map[string][]int64{}
			dims := v.Dims()
			for i := 0; i < all.Len(); i++ {
				key := ""
				for _, dim := range dims {
					key += fmt.Sprintf("%d,", all.Dim(i, dim))
				}
				oracle[key] = append(oracle[key], all.Meas(i))
			}
			order := met.ViewOrders[v]
			seen := 0
			for r := 0; r < p; r++ {
				tb, ok := m.Proc(r).Disk().Peek(core.ViewFile(v))
				if !ok {
					continue
				}
				for i := 0; i < tb.Len(); i++ {
					key := canonicalKey(tb, i, order)
					vals, hit := oracle[key]
					if !hit {
						t.Fatalf("%v view %v key %q not in oracle", tc.op, v, key)
					}
					seen++
					switch tc.op {
					case record.OpDistinct:
						set := map[int64]bool{}
						for _, x := range vals {
							set[x] = true
						}
						if got := sketch.Estimate(tc.op, tb.Meas(i), tb.State(i), 0); got != float64(len(set)) {
							t.Fatalf("%v view %v key %q got %v, want %d", tc.op, v, key, got, len(set))
						}
					case record.OpQuantile:
						s := append([]int64(nil), vals...)
						sort.Slice(s, func(a, b int) bool { return s[a] < s[b] })
						want := float64(s[int(0.5*float64(len(s)-1))])
						if got := sketch.Estimate(tc.op, tb.Meas(i), tb.State(i), 0.5); got != want {
							t.Fatalf("%v view %v key %q median got %v, want %v", tc.op, v, key, got, want)
						}
					}
				}
			}
			if seen != len(oracle) {
				t.Fatalf("%v view %v has %d groups, oracle %d", tc.op, v, seen, len(oracle))
			}
		}
	}
}

// canonicalKey renders row i's group key in ascending dimension order
// regardless of the view's materialized column order.
func canonicalKey(tb *record.Table, i int, ord lattice.Order) string {
	type dv struct{ dim, val int }
	pairs := make([]dv, len(ord))
	for c, dim := range ord {
		pairs[c] = dv{dim, int(tb.Dim(i, c))}
	}
	sort.Slice(pairs, func(a, b int) bool { return pairs[a].dim < pairs[b].dim })
	key := ""
	for _, p := range pairs {
		key += fmt.Sprintf("%d,", p.val)
	}
	return key
}
