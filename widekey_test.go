package rolap

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/record"
)

// TestWideKeyCubeMatchesGroupByOracle exercises the comparison sort and
// the heap merge by an input rather than a switch: six dimensions whose
// codes are spread by an order-preserving per-column shift to 32 bits
// each, so the raw sort and every view of five or six dimensions carry
// keys wider than the 128 bits the radix and loser-tree kernels pack.
// Every view of the built cube must equal the hash group-by of the
// input, sorted and duplicate-free, and superset scans must agree.
func TestWideKeyCubeMatchesGroupByOracle(t *testing.T) {
	cards := []int{40, 20, 12, 6, 5, 3}
	shifts := []uint{26, 27, 28, 29, 29, 30}
	dims := make([]Dimension, len(cards))
	for j := range dims {
		dims[j] = Dimension{Name: fmt.Sprintf("d%d", j), Cardinality: (cards[j]-1)<<shifts[j] + 1}
	}
	in, err := NewInput(Schema{Dimensions: dims})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	const n = 4000
	rows := make([][]uint32, n)
	meas := make([]int64, n)
	for i := range rows {
		rows[i] = make([]uint32, len(cards))
		for j, c := range cards {
			rows[i][j] = uint32(rng.Intn(c)) << shifts[j]
		}
		meas[i] = int64(rng.Intn(100))
		if err := in.AddRow(rows[i], meas[i]); err != nil {
			t.Fatal(err)
		}
	}
	if record.MeasureKeyPlan(in.table).Packable() {
		t.Fatal("test premise broken: the fact table's keys pack into 128 bits")
	}
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}

	col := map[string]int{}
	for j, dim := range dims {
		col[dim.Name] = j
	}
	groupBy := func(names []string) map[string]int64 {
		out := map[string]int64{}
		key := make([]uint32, len(names))
		for i, row := range rows {
			for k, name := range names {
				key[k] = row[col[name]]
			}
			out[fmt.Sprint(key)] += meas[i]
		}
		return out
	}
	views := cube.Views()
	if len(views) != 1<<len(cards) {
		t.Fatalf("%d views materialized, want %d", len(views), 1<<len(cards))
	}
	for _, names := range views {
		vw, err := cube.View(names)
		if err != nil {
			t.Fatal(err)
		}
		want := groupBy(vw.Attributes)
		if vw.Len() != len(want) {
			t.Fatalf("view %v has %d rows, oracle %d groups", names, vw.Len(), len(want))
		}
		for i := 0; i < vw.Len(); i++ {
			key, m := vw.Row(i)
			if m != want[fmt.Sprint(key)] {
				t.Fatalf("view %v group %v = %d, oracle %d", names, key, m, want[fmt.Sprint(key)])
			}
			if i > 0 && vw.rows.Compare(i-1, i, vw.rows.D) >= 0 {
				t.Fatalf("view %v rows %d,%d out of order or duplicated", names, i-1, i)
			}
		}
	}

	// A filtered group-by scans the six-dimension view in place.
	filter := rows[0][5]
	vw, err := cube.GroupBy([]string{"d0", "d1", "d2", "d3", "d4"}, map[string]uint32{"d5": filter})
	if err != nil {
		t.Fatal(err)
	}
	want := groupBy([]string{"d0", "d1", "d2", "d3", "d4", "d5"})
	for i := 0; i < vw.Len(); i++ {
		key, m := vw.Row(i)
		if m != want[fmt.Sprint(append(key, filter))] {
			t.Fatalf("filtered group %v = %d, oracle %d", key, m, want[fmt.Sprint(append(key, filter))])
		}
	}
	if vw.Len() == 0 {
		t.Fatal("filtered group-by returned nothing")
	}
}
