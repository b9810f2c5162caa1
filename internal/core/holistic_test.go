package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/lattice"
	"repro/internal/record"
	"repro/internal/sketch"
)

// holisticRaw builds a deterministic raw table whose measures are
// values (not unit counts), so distinct-count and quantile aggregates
// are non-trivial per group. Measures stay below 128, where the
// quantile sketch's log-quantized codes are exact.
func holisticRaw(n, d int, cards []int, measRange int) *record.Table {
	t := record.New(d, n)
	row := make([]uint32, d)
	x := uint64(0x9e3779b97f4a7c15)
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
		t.Append(row, int64(next()%uint64(measRange)))
	}
	return t
}

// holisticOracle group-bys raw over view v's dimensions, returning the
// multiset of raw measure values per group key.
func holisticOracle(raw *record.Table, v lattice.ViewID) map[string][]int64 {
	out := map[string][]int64{}
	dims := v.Dims()
	for i := 0; i < raw.Len(); i++ {
		key := ""
		for _, dim := range dims {
			key += fmt.Sprintf("%d,", raw.Dim(i, dim))
		}
		out[key] = append(out[key], raw.Meas(i))
	}
	return out
}

func exactDistinct(vals []int64) float64 {
	set := map[int64]bool{}
	for _, v := range vals {
		set[v] = true
	}
	return float64(len(set))
}

func exactQuantile(vals []int64, q float64) float64 {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return float64(s[int(q*float64(len(s)-1))])
}

// buildHolistic distributes raw over p processors and builds the full
// cube under the holistic op.
func buildHolistic(t *testing.T, raw *record.Table, d, p int, op record.AggOp) (*cluster.Machine, Metrics) {
	t.Helper()
	m := cluster.New(p, costmodel.Default())
	n := raw.Len()
	for r := 0; r < p; r++ {
		m.Proc(r).Disk().Put("raw", raw.Sub(r*n/p, (r+1)*n/p))
	}
	met, err := BuildCube(m, "raw", Config{D: d, Agg: op})
	if err != nil {
		t.Fatal(err)
	}
	return m, met
}

// checkHolisticCube walks every view slice, serves each group's
// estimate from its row, and compares against the brute-force
// oracle. With measures below 128 and group cardinalities below the
// exact threshold, both sketches are exact, so the comparison is too.
func checkHolisticCube(t *testing.T, m *cluster.Machine, raw *record.Table, d int, op record.AggOp) {
	t.Helper()
	for _, v := range lattice.AllViews(d) {
		oracle := holisticOracle(raw, v)
		seen := 0
		var order lattice.Order
		for r := 0; r < m.P(); r++ {
			tb, ok := m.Proc(r).Disk().Peek(ViewFile(v))
			if !ok || tb.Len() == 0 {
				continue
			}
			if order == nil {
				order = guessOrder(tb, raw, v)
			}
			for i := 0; i < tb.Len(); i++ {
				key := keyOf(tb, i, order)
				vals, ok := oracle[key]
				if !ok {
					t.Fatalf("view %v rank %d row %d key %q not in oracle", v, r, i, key)
				}
				seen++
				switch op {
				case record.OpDistinct:
					got := sketch.Estimate(op, tb.Meas(i), tb.State(i), 0)
					if want := exactDistinct(vals); got != want {
						t.Fatalf("view %v key %q distinct %v, want %v", v, key, got, want)
					}
				case record.OpQuantile:
					for _, q := range []float64{0, 0.5, 1} {
						got := sketch.Estimate(op, tb.Meas(i), tb.State(i), q)
						if want := exactQuantile(vals, q); math.Abs(got-want) > 0.5 {
							t.Fatalf("view %v key %q q=%v got %v, want %v", v, key, q, got, want)
						}
					}
				}
			}
		}
		if seen != len(oracle) {
			t.Fatalf("view %v has %d groups, oracle has %d", v, seen, len(oracle))
		}
	}
}

// guessOrder recovers the materialized attribute order of a view slice
// by matching its first row's column values against oracle keys — the
// test-side stand-in for the build's order metadata.
func guessOrder(tb, raw *record.Table, v lattice.ViewID) lattice.Order {
	dims := v.Dims()
	if len(dims) <= 1 {
		return lattice.Order(dims)
	}
	oracle := holisticOracle(raw, v)
	var try func(cur []int, rest []int) lattice.Order
	try = func(cur, rest []int) lattice.Order {
		if len(rest) == 0 {
			ok := true
			for i := 0; i < tb.Len() && ok; i++ {
				if _, hit := oracle[keyOf(tb, i, cur)]; !hit {
					ok = false
				}
			}
			if ok {
				return lattice.Order(append([]int(nil), cur...))
			}
			return nil
		}
		for k := range rest {
			nr := append(append([]int(nil), rest[:k]...), rest[k+1:]...)
			if o := try(append(cur, rest[k]), nr); o != nil {
				return o
			}
		}
		return nil
	}
	return try(nil, dims)
}

// keyOf renders row i's group key in canonical dimension order: ord[c]
// names the dimension stored in column c, and the oracle keys are in
// ascending dimension order.
func keyOf(tb *record.Table, i int, ord []int) string {
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

func TestBuildCubeDistinct(t *testing.T) {
	d := 3
	raw := holisticRaw(1200, d, []int{6, 4, 3}, 100)
	m, met := buildHolistic(t, raw, d, 4, record.OpDistinct)
	checkHolisticCube(t, m, raw, d, record.OpDistinct)
	if met.SketchBytes <= 0 {
		t.Fatalf("SketchBytes = %d, want > 0", met.SketchBytes)
	}
	var per int64
	for _, b := range met.ViewSketchBytes {
		per += b
	}
	if per != met.SketchBytes {
		t.Fatalf("per-view sketch bytes %d != total %d", per, met.SketchBytes)
	}
}

func TestBuildCubeQuantile(t *testing.T) {
	d := 3
	raw := holisticRaw(1200, d, []int{6, 4, 3}, 100)
	m, _ := buildHolistic(t, raw, d, 4, record.OpQuantile)
	checkHolisticCube(t, m, raw, d, record.OpQuantile)
}

// TestBuildCubeHolisticMemoryBounded: a holistic build keeps no state
// beside its views. Every sealed blob left on the machine's disks is a
// view row's, intermediate files are gone with theirs, and the views'
// blobs are exactly the state the answers need.
func TestBuildCubeHolisticMemoryBounded(t *testing.T) {
	d := 3
	raw := holisticRaw(1500, d, []int{8, 5, 3}, 100)
	m, met := buildHolistic(t, raw, d, 4, record.OpQuantile)
	var onDisk int64
	for r := 0; r < m.P(); r++ {
		disk := m.Proc(r).Disk()
		for _, f := range disk.Files() {
			onDisk += int64(disk.StateBytes(f))
		}
	}
	if met.SketchBytes <= 0 || onDisk != met.SketchBytes {
		t.Fatalf("disks hold %d sketch bytes, the views %d", onDisk, met.SketchBytes)
	}
	checkHolisticCube(t, m, raw, d, record.OpQuantile)
}

// TestBuildCubeHolisticDeterministic: two independent builds of the
// same data produce byte-identical sealed sketch blobs row for row —
// even when they sort and merge on different paths. The second build's
// dimension values carry a set top bit, an order-preserving shift to
// 192-bit keys, so its wide views visit runs through the comparison
// sort and the heap merge instead of the radix and loser-tree kernels.
func TestBuildCubeHolisticDeterministic(t *testing.T) {
	d := 6
	raw := holisticRaw(900, d, []int{5, 4, 3, 3, 2, 2}, 100)
	wide := raw.Clone()
	widenKeys(wide)
	if record.MeasureKeyPlan(wide).Packable() {
		t.Fatal("test premise broken: the shifted keys still pack")
	}
	m1, _ := buildHolistic(t, raw, d, 3, record.OpDistinct)
	m2, _ := buildHolistic(t, wide, d, 3, record.OpDistinct)
	for _, v := range lattice.AllViews(d) {
		for r := 0; r < m1.P(); r++ {
			t1, ok1 := m1.Proc(r).Disk().Peek(ViewFile(v))
			t2, ok2 := m2.Proc(r).Disk().Peek(ViewFile(v))
			if ok1 != ok2 {
				t.Fatalf("view %v rank %d presence differs", v, r)
			}
			if !ok1 {
				continue
			}
			if t1.Len() != t2.Len() {
				t.Fatalf("view %v rank %d length differs", v, r)
			}
			for i := 0; i < t1.Len(); i++ {
				// A single-fact group keeps its raw value, no sketch.
				if t1.Meas(i) != t2.Meas(i) {
					t.Fatalf("view %v rank %d row %d raw measures differ", v, r, i)
				}
				if string(t1.State(i)) != string(t2.State(i)) {
					t.Fatalf("view %v rank %d row %d sketch blobs differ", v, r, i)
				}
			}
		}
	}
}

func TestBuildCubeHolisticValidation(t *testing.T) {
	m := cluster.New(2, costmodel.Default())
	for r := 0; r < 2; r++ {
		m.Proc(r).Disk().Put("raw", record.New(2, 0))
	}
	if _, err := BuildCube(m, "raw", Config{D: 2, Agg: record.OpDistinct, MinSupport: 5}); err == nil {
		t.Fatal("holistic iceberg build must be rejected")
	}
}
