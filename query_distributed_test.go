package rolap

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/record"
)

// TestDistributedGroupByMatchesGatherOracle is the subsystem's
// correctness oracle: on randomized schemas, data, filters, and
// machine sizes, the distributed scatter–gather path must return
// byte-identical results to the original gather-and-scan path.
func TestDistributedGroupByMatchesGatherOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	aggs := []Aggregate{Sum, Min, Max}
	for trial := 0; trial < 25; trial++ {
		d := 3 + rng.Intn(3)
		dims := make([]Dimension, d)
		for i := range dims {
			dims[i] = Dimension{Name: fmt.Sprintf("d%d", i), Cardinality: 2 + rng.Intn(29)}
		}
		in, err := NewInput(Schema{Dimensions: dims})
		if err != nil {
			t.Fatal(err)
		}
		n := 300 + rng.Intn(1200)
		row := make([]uint32, d)
		for i := 0; i < n; i++ {
			for j := range row {
				row[j] = uint32(rng.Intn(dims[j].Cardinality))
			}
			if err := in.AddRow(row, int64(rng.Intn(200)-50)); err != nil {
				t.Fatal(err)
			}
		}
		cube, err := Build(in, Options{
			Processors: 1 + rng.Intn(5),
			Aggregate:  aggs[rng.Intn(len(aggs))],
		})
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}

		// Random group dims + equality filters over disjoint dims.
		perm := rng.Perm(d)
		ng := rng.Intn(d + 1)
		group := make([]string, 0, ng)
		for _, u := range perm[:ng] {
			group = append(group, dims[u].Name)
		}
		filters := map[string]uint32{}
		for _, u := range perm[ng:] {
			if rng.Intn(2) == 0 {
				filters[dims[u].Name] = uint32(rng.Intn(dims[u].Cardinality))
			}
		}
		// Filters may also restrict grouped dimensions ("group by X
		// where X = v"); both paths must agree on the restriction too.
		for _, u := range perm[:ng] {
			if rng.Intn(4) == 0 {
				filters[dims[u].Name] = uint32(rng.Intn(dims[u].Cardinality))
			}
		}

		got, err := cube.GroupBy(group, filters)
		if err != nil {
			t.Fatalf("trial %d: distributed: %v", trial, err)
		}
		want, err := cube.gatherQuery(eqQuery(group, filters))
		if err != nil {
			t.Fatalf("trial %d: gather: %v", trial, err)
		}
		if !record.Equal(got.rows, want.rows) {
			t.Fatalf("trial %d: group %v filters %v: distributed and gathered results differ\ngot  %v\nwant %v",
				trial, group, filters, got.rows, want.rows)
		}
		for k := range got.Attributes {
			if got.Attributes[k] != want.Attributes[k] {
				t.Fatalf("trial %d: attribute mismatch %v vs %v", trial, got.Attributes, want.Attributes)
			}
		}

		// And a random range aggregate over 1..d dims.
		nr := 1 + rng.Intn(d)
		rdims := make([]string, nr)
		lo := make([]uint32, nr)
		hi := make([]uint32, nr)
		for k, u := range rng.Perm(d)[:nr] {
			rdims[k] = dims[u].Name
			a := uint32(rng.Intn(dims[u].Cardinality))
			b := uint32(rng.Intn(dims[u].Cardinality))
			if a > b {
				a, b = b, a
			}
			lo[k], hi[k] = a, b
		}
		gotR, err := cube.RangeAggregate(rdims, lo, hi)
		if err != nil {
			t.Fatalf("trial %d: distributed range: %v", trial, err)
		}
		rq := Query{}
		for k := range rdims {
			rq.Bounds = append(rq.Bounds, Bound{Dim: rdims[k], Lo: lo[k], Hi: hi[k]})
		}
		wantV, err := cube.gatherQuery(rq)
		if err != nil {
			t.Fatalf("trial %d: gather range: %v", trial, err)
		}
		wantR := int64(0)
		if wantV.Len() > 0 {
			_, wantR = wantV.Row(0)
		}
		if gotR != wantR {
			t.Fatalf("trial %d: range %v %v..%v: distributed %d, gathered %d",
				trial, rdims, lo, hi, gotR, wantR)
		}
	}
}

// TestGroupByEmptyAfterFilter covers a filter that matches no facts:
// the result must be an empty view, not an error.
func TestGroupByEmptyAfterFilter(t *testing.T) {
	in, _ := NewInput(testSchema())
	// Only stores 0..4 appear; store 39 is in the dictionary but unused.
	for i := 0; i < 50; i++ {
		if err := in.AddRow([]uint32{uint32(i % 12), uint32(i % 5), uint32(i % 25), uint32(i % 3)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	vw, err := cube.GroupBy([]string{"month"}, map[string]uint32{"store": 39})
	if err != nil {
		t.Fatal(err)
	}
	if vw.Len() != 0 {
		t.Fatalf("filter on unused store matched %d groups", vw.Len())
	}
}

// TestGroupByGrandTotal covers the zero-dimension group-by: one row,
// empty key, the aggregate of everything.
func TestGroupByGrandTotal(t *testing.T) {
	in, oracle := loadRandom(t, 400, 21)
	cube, err := Build(in, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	vw, err := cube.GroupBy([]string{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vw.Len() != 1 {
		t.Fatalf("grand total has %d rows, want 1", vw.Len())
	}
	if got, want := vw.rows.Meas(0), oracle(nil, nil); got != want {
		t.Fatalf("grand total = %d, want %d", got, want)
	}
	if len(vw.Attributes) != 0 {
		t.Fatalf("grand total has attributes %v", vw.Attributes)
	}
}

// TestGroupByFilterValueAbsentFromDictionary covers a filter code
// beyond the dimension's cardinality: no dictionary entry can match,
// so the result is empty — not an error (the code space is dense but
// queries are not required to stay inside it).
func TestGroupByFilterValueAbsentFromDictionary(t *testing.T) {
	in, _ := loadRandom(t, 200, 5)
	cube, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	vw, err := cube.GroupBy([]string{"product"}, map[string]uint32{"channel": 99})
	if err != nil {
		t.Fatal(err)
	}
	if vw.Len() != 0 {
		t.Fatalf("out-of-dictionary filter matched %d groups", vw.Len())
	}
}

// TestSmallestSupersetDeterministicTieBreak pins the planner's
// tie-breaking on a built cube: two candidate views with identical row
// counts must resolve to the same view on every call, regardless of
// map iteration order.
func TestSmallestSupersetDeterministicTieBreak(t *testing.T) {
	in, err := NewInput(Schema{Dimensions: []Dimension{
		{Name: "a", Cardinality: 4},
		{Name: "b", Cardinality: 1},
		{Name: "c", Cardinality: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := in.AddRow([]uint32{uint32(i % 4), 0, 0}, 1); err != nil {
			t.Fatal(err)
		}
	}
	// Materialize only {a,b} and {a,c}: both roll up {a} with identical
	// row counts (b and c have cardinality 1).
	cube, err := Build(in, Options{
		Processors:    2,
		SelectedViews: [][]string{{"a", "b"}, {"a", "c"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	need, err := in.viewOf([]string{"a"})
	if err != nil {
		t.Fatal(err)
	}
	first, err := cube.engine.Topology().PickSource(need)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v, err := cube.engine.Topology().PickSource(need)
		if err != nil {
			t.Fatal(err)
		}
		if v != first {
			t.Fatalf("iteration %d: picked %v after first picking %v", i, v, first)
		}
	}
	// The rule is "smaller ViewID wins": with a=0, b=1, c=2 internally,
	// {a,b} (bitmask 0b011) must beat {a,c} (0b101).
	ab, _ := in.viewOf([]string{"a", "b"})
	if first != ab {
		t.Fatalf("tie broke to %v, want %v ({a,b})", first, ab)
	}
}
