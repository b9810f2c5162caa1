package record

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// setCombiner is a holistic state combiner whose state is the exact set
// of raw values a group absorbed, sealed as the sorted values: order-free,
// so two aggregation paths agree exactly when they put the same values
// in the same groups.
type setCombiner struct{}

type setAcc map[int64]bool

func (setCombiner) Open() Accumulator { return setAcc{} }

func (a setAcc) Absorb(meas int64, blob []byte) {
	for v := range setElems(meas, blob) {
		a[v] = true
	}
}

func (a setAcc) Seal() []byte {
	vals := make([]int64, 0, len(a))
	for v := range a {
		vals = append(vals, v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	b := []byte{}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

// setElems returns the value set of a row: its raw word, or its blob's.
func setElems(meas int64, blob []byte) map[int64]bool {
	if blob == nil {
		return map[int64]bool{meas: true}
	}
	set := map[int64]bool{}
	for ; len(blob) >= 8; blob = blob[8:] {
		set[int64(binary.LittleEndian.Uint64(blob))] = true
	}
	return set
}

// resolve renders each output row as its key and its measure's value
// set.
func (c setCombiner) resolve(t *testing.T, out *Table) []string {
	t.Helper()
	var rows []string
	for i := 0; i < out.Len(); i++ {
		m := out.Meas(i)
		var vals []int64
		for v := range setElems(m, out.State(i)) {
			vals = append(vals, v)
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a] < vals[b] })
		rows = append(rows, fmt.Sprint(out.RowCopy(i), vals))
	}
	return rows
}

// naiveFilterProjectAggregate is the per-row residual loop the kernel
// replaced: test every bound on every row, append the projected key,
// then sort and aggregate.
func naiveFilterProjectAggregate(t *Table, bounds []ColRange, cols []int, agg Agg) (*Table, int) {
	proj := New(len(cols), 0)
	key := make([]uint32, len(cols))
	for i := 0; i < t.Len(); i++ {
		keep := true
		for _, b := range bounds {
			if v := t.Dim(i, b.Col); v < b.Lo || v > b.Hi {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		for k, c := range cols {
			key[k] = t.Dim(i, c)
		}
		proj.Append(key, t.Meas(i))
		proj.SetState(proj.Len()-1, t.State(i))
	}
	return SortAggregateAgg(proj, agg), proj.Len()
}

// TestFilterProjectAggregateMatchesNaive checks the kernel against the
// naive loop on windows of sorted tables, for prefix permutations of
// the sort order (aggregated without a sort), the identity prefix, other
// projections and the scalar projection; for no bound, several bounds
// and bounds nothing satisfies; and for algebraic and holistic Aggs.
func TestFilterProjectAggregateMatchesNaive(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(41))
	projections := [][]int{{}, {0}, {0, 1}, {1, 0}, {2, 0, 1}, {0, 1, 2, 3}, {3, 1, 2, 0}, {3}, {1, 3}, {2, 0}, {1}}
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(400)
		tb := randomTable(rng.Int63(), n, 4, 1+rng.Intn(6))
		tb.Sort()
		lo := rng.Intn(n + 1)
		hi := lo + rng.Intn(n-lo+1)
		win := tb.Window(lo, hi)
		var bounds []ColRange
		for k := rng.Intn(3); k > 0; k-- {
			b := ColRange{Col: rng.Intn(4), Lo: uint32(rng.Intn(6))}
			b.Hi = b.Lo + uint32(rng.Intn(4))
			if rng.Intn(8) == 0 {
				b.Lo, b.Hi = 50, 60 // matches nothing
			}
			bounds = append(bounds, b)
		}
		cols := projections[rng.Intn(len(projections))]
		for _, op := range []AggOp{OpSum, OpMin, OpMax} {
			got, kept := FilterProjectAggregate(win, bounds, cols, Agg{Op: op})
			want, wantKept := naiveFilterProjectAggregate(win, bounds, cols, Agg{Op: op})
			if kept != wantKept || !Equal(got, want) {
				t.Fatalf("trial %d %v bounds %v cols %v: got %v (kept %d), want %v (kept %d)",
					trial, op, bounds, cols, got, kept, want, wantKept)
			}
		}
		var sc setCombiner
		got, _ := FilterProjectAggregate(win, bounds, cols, Agg{Op: OpDistinct, State: sc})
		want, _ := naiveFilterProjectAggregate(win, bounds, cols, Agg{Op: OpDistinct, State: sc})
		if g, w := sc.resolve(t, got), sc.resolve(t, want); !reflect.DeepEqual(g, w) {
			t.Fatalf("trial %d holistic bounds %v cols %v: got %v, want %v", trial, bounds, cols, g, w)
		}
	}
}

// BenchmarkFilterProjectAggregate scans a sorted 40k-row d=6 slice
// with one half-selective bound, grouping by the leading column (the
// no-sort prefix path) and by a trailing one (project, sort, aggregate).
func BenchmarkFilterProjectAggregate(b *testing.B) {
	tb := randomTable(9, 40000, 6, 32)
	tb.Sort()
	bounds := []ColRange{{Col: 3, Lo: 0, Hi: 15}}
	for _, cols := range [][]int{{0}, {4}} {
		b.Run(fmt.Sprint(cols), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				FilterProjectAggregate(tb, bounds, cols, Agg{Op: OpSum})
			}
			b.ReportMetric(float64(b.N)*float64(tb.Len())/b.Elapsed().Seconds(), "rows/s")
		})
	}
}
