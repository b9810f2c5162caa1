package rolap

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/record"
)

func TestGroupByWithFilters(t *testing.T) {
	in, oracle := loadRandom(t, 1500, 21)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Group revenue by month, restricted to channel 1: answered from
	// the (month, channel) view (or a superset), re-aggregated.
	vw, err := cube.GroupBy([]string{"month"}, map[string]uint32{"channel": 1})
	if err != nil {
		t.Fatal(err)
	}
	if vw.Attributes[0] != "month" {
		t.Fatalf("attributes = %v", vw.Attributes)
	}
	for i := 0; i < vw.Len(); i++ {
		key, m := vw.Row(i)
		want := oracle([]string{"month", "channel"}, []uint32{key[0], 1})
		if m != want {
			t.Fatalf("month %d filtered = %d, want %d", key[0], m, want)
		}
	}
	// No filters: GroupBy equals the materialized view's totals.
	plain, err := cube.GroupBy([]string{"store"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < plain.Len(); i++ {
		key, m := plain.Row(i)
		if want := oracle([]string{"store"}, key); m != want {
			t.Fatalf("store %d = %d, want %d", key[0], m, want)
		}
	}
}

func TestGroupByOnPartialCube(t *testing.T) {
	in, oracle := loadRandom(t, 1000, 22)
	cube, err := Build(in, Options{
		Processors:    2,
		SelectedViews: [][]string{{"store", "product", "channel"}, {}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// (product) with a channel filter must be answered from the
	// 3-dimensional view.
	vw, err := cube.GroupBy([]string{"product"}, map[string]uint32{"channel": 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < vw.Len(); i++ {
		key, m := vw.Row(i)
		if want := oracle([]string{"product", "channel"}, []uint32{key[0], 0}); m != want {
			t.Fatalf("product %d = %d, want %d", key[0], m, want)
		}
	}
	// A dimension outside the materialized views fails loudly.
	if _, err := cube.GroupBy([]string{"month"}, nil); err == nil {
		t.Fatal("uncovered query did not error")
	}
}

func TestGroupByValidation(t *testing.T) {
	in, _ := loadRandom(t, 200, 23)
	cube, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.GroupBy([]string{"bogus"}, nil); err == nil {
		t.Fatal("unknown dimension accepted")
	}
	// A filter on a grouped dimension is a valid restriction ("group by
	// store where store = 1"), and both serving paths must agree on it.
	vw, err := cube.GroupBy([]string{"store"}, map[string]uint32{"store": 1})
	if err != nil {
		t.Fatalf("filter on grouped dimension rejected: %v", err)
	}
	for i := 0; i < vw.Len(); i++ {
		if key, _ := vw.Row(i); key[0] != 1 {
			t.Fatalf("row %d has store %d, want only 1", i, key[0])
		}
	}
	gathered, err := cube.gatherQuery(eqQuery([]string{"store"}, map[string]uint32{"store": 1}))
	if err != nil {
		t.Fatalf("gather path rejected grouped-dim filter: %v", err)
	}
	if gathered.Len() != vw.Len() {
		t.Fatalf("paths disagree: gather %d rows, distributed %d", gathered.Len(), vw.Len())
	}
}

func TestRangeAggregate(t *testing.T) {
	in, oracle := loadRandom(t, 1500, 24)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Sum of stores 10..19 across months 3..5.
	got, err := cube.RangeAggregate([]string{"store", "month"}, []uint32{10, 3}, []uint32{19, 5})
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for s := uint32(10); s <= 19; s++ {
		for m := uint32(3); m <= 5; m++ {
			want += oracle([]string{"store", "month"}, []uint32{s, m})
		}
	}
	if got != want {
		t.Fatalf("range sum = %d, want %d", got, want)
	}
	// Degenerate single-cell range equals the point query.
	got, _ = cube.RangeAggregate([]string{"store"}, []uint32{7}, []uint32{7})
	if want := oracle([]string{"store"}, []uint32{7}); got != want {
		t.Fatalf("single-cell range = %d, want %d", got, want)
	}
	// Empty intersection returns 0.
	got, _ = cube.RangeAggregate([]string{"store"}, []uint32{39}, []uint32{39})
	_ = got
	if _, err := cube.RangeAggregate([]string{"store"}, []uint32{5}, []uint32{4}); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := cube.RangeAggregate([]string{"store"}, []uint32{5}, []uint32{4, 6}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestRangeAggregateMaxCube(t *testing.T) {
	in, _ := NewInput(testSchema())
	rng := rand.New(rand.NewSource(25))
	truth := int64(-1 << 62)
	for i := 0; i < 800; i++ {
		vals := []uint32{uint32(rng.Intn(12)), uint32(rng.Intn(40)), uint32(rng.Intn(25)), uint32(rng.Intn(3))}
		m := int64(rng.Intn(10000))
		if err := in.AddRow(vals, m); err != nil {
			t.Fatal(err)
		}
		if vals[1] < 20 && m > truth {
			truth = m
		}
	}
	cube, err := Build(in, Options{Processors: 2, Aggregate: Max})
	if err != nil {
		t.Fatal(err)
	}
	got, err := cube.RangeAggregate([]string{"store"}, []uint32{0}, []uint32{19})
	if err != nil || got != truth {
		t.Fatalf("max over stores 0..19 = %d (%v), want %d", got, err, truth)
	}
}

func TestRollUpDrillDownConsistency(t *testing.T) {
	in, _ := loadRandom(t, 1200, 26)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Rolling up the (store,month) view over month must equal the
	// (store) view.
	detail, err := cube.View([]string{"store", "month"})
	if err != nil {
		t.Fatal(err)
	}
	rollup := map[uint32]int64{}
	storeCol := 0
	if detail.Attributes[0] != "store" {
		storeCol = 1
	}
	for i := 0; i < detail.Len(); i++ {
		key, m := detail.Row(i)
		rollup[key[storeCol]] += m
	}
	stores, err := cube.View([]string{"store"})
	if err != nil {
		t.Fatal(err)
	}
	if stores.Len() != len(rollup) {
		t.Fatalf("rollup groups %d != store view %d", len(rollup), stores.Len())
	}
	for i := 0; i < stores.Len(); i++ {
		key, m := stores.Row(i)
		if rollup[key[0]] != m {
			t.Fatalf("store %d rollup %d != view %d", key[0], rollup[key[0]], m)
		}
	}
}

// TestIndexedQueriesDecodeOnce: an index-narrowed query reads a window
// of its slice's shared decode, so repeated indexed queries decode each
// slice at most once — the cube's decoded bytes stop at the source
// view's row-form size and do not grow with further queries.
func TestIndexedQueriesDecodeOnce(t *testing.T) {
	rows, meas := randomFacts(3000, 5)
	cube := buildFromFacts(t, rows, meas, Options{Processors: 3})
	if got := cube.DecodedBytes(); got != 0 {
		t.Fatalf("decoded bytes after Build = %d, want 0", got)
	}
	ask := func(store uint32) {
		t.Helper()
		_, qm, err := cube.Do(context.Background(), Query{
			Group:  []string{"month", "channel"},
			Bounds: []Bound{{Dim: "store", Lo: store, Hi: store}},
		})
		if err != nil || !qm.IndexUsed {
			t.Fatalf("store %d: %v (index used: %v)", store, err, qm.IndexUsed)
		}
	}
	ask(0)
	first := cube.DecodedBytes()
	src, err := cube.lookup([]string{"month", "channel", "store"})
	if err != nil {
		t.Fatal(err)
	}
	viewBytes := int64(cube.viewRowCount(src)) * int64(record.RowBytes(3))
	if first <= 0 || first > viewBytes {
		t.Fatalf("decoded bytes after one indexed query = %d, want in (0, %d]", first, viewBytes)
	}
	for k := 0; k < 3; k++ {
		for store := uint32(0); store < 40; store++ {
			ask(store)
		}
	}
	if got := cube.DecodedBytes(); got != viewBytes {
		t.Fatalf("decoded bytes after 121 indexed queries = %d, want the source view's %d once", got, viewBytes)
	}
}
