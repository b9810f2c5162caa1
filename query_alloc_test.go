package rolap

import (
	"context"
	"math/rand"
	"testing"
)

// TestCacheHitWrapperAllocs pins the allocation count of the three
// cache-hit serving wrappers. A cache hit is the serving tier's median
// query (microseconds), so an allocation added to the
// wrapper → Do → resolve → plan → key path is a visible tax on it; a
// count is checked rather than a time because it does not depend on the
// host clock. The ceilings are what the pre-Query code (three
// hand-written paths) measured on this fixture.
func TestCacheHitWrapperAllocs(t *testing.T) {
	in, err := NewInput(Schema{Dimensions: []Dimension{
		{Name: "a", Cardinality: 16}, {Name: "b", Cardinality: 8},
		{Name: "c", Cardinality: 4}, {Name: "d", Cardinality: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4000; i++ {
		row := []uint32{uint32(rng.Intn(16)), uint32(rng.Intn(8)), uint32(rng.Intn(4)), uint32(rng.Intn(4))}
		if err := in.AddRow(row, int64(rng.Intn(100))); err != nil {
			t.Fatal(err)
		}
	}
	cube, err := Build(in, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cube.NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dims, filters := []string{"a", "c"}, map[string]uint32{"b": 3}
	lo, hi := []uint32{2, 1}, []uint32{9, 2}

	cases := []struct {
		name string
		max  float64
		run  func() (QueryMetrics, error)
	}{
		{"GroupBy", 24, func() (QueryMetrics, error) {
			_, qm, err := srv.GroupBy(ctx, dims, filters)
			return qm, err
		}},
		{"RangeAggregate", 20, func() (QueryMetrics, error) {
			_, qm, err := srv.RangeAggregate(ctx, dims, lo, hi)
			return qm, err
		}},
		{"Aggregate", 22, func() (QueryMetrics, error) {
			_, qm, err := srv.Aggregate(ctx, dims, lo)
			return qm, err
		}},
	}
	for _, tc := range cases {
		if _, err := tc.run(); err != nil { // warm the cache
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := testing.AllocsPerRun(200, func() {
			if qm, err := tc.run(); err != nil || !qm.CacheHit {
				t.Fatalf("%s: cache hit = %v, err = %v", tc.name, qm.CacheHit, err)
			}
		})
		if got > tc.max {
			t.Errorf("%s: %.0f allocations per cache hit, ceiling %.0f", tc.name, got, tc.max)
		}
		t.Logf("%s: %.0f allocations per cache hit (ceiling %.0f)", tc.name, got, tc.max)
	}
}
