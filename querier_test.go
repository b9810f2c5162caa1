package rolap

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/record"
)

// randomQuery draws one Query over testSchema: any number of group
// dimensions (none is a scalar, and with no bound the grand total),
// equality and range bounds on grouped and on ungrouped dimensions, now
// and then a bound no fact satisfies, and (ranks non-empty) a quantile
// rank or none.
func randomQuery(rng *rand.Rand, ranks []float64) Query {
	dims := testSchema().Dimensions
	perm := rng.Perm(len(dims))
	ng := rng.Intn(len(dims) + 1)
	var q Query
	for k, u := range perm {
		card := dims[u].Cardinality
		if k < ng {
			q.Group = append(q.Group, dims[u].Name)
		}
		// Bound a quarter of the grouped and half of the other dimensions.
		if rng.Intn(4) == 0 || (k >= ng && rng.Intn(3) == 0) {
			lo := uint32(rng.Intn(card))
			hi := lo
			switch rng.Intn(6) {
			case 0: // empty selection: codes stop at card-1
				lo, hi = uint32(card+1), uint32(card+3)
			case 1, 2, 3: // range
				hi = lo + uint32(rng.Intn(card-int(lo)))
			}
			q.Bounds = append(q.Bounds, Bound{Dim: dims[u].Name, Lo: lo, Hi: hi})
		}
	}
	if len(ranks) > 0 && rng.Intn(4) != 0 {
		q.Percentile = &ranks[rng.Intn(len(ranks))]
	}
	return q
}

// TestQuerierDifferential drives one seeded random Query stream through
// every Querier — the cube itself, a caching server (each query twice)
// and a two-replica set — with an ingest batch mid-stream, on a full
// Sum cube, a partial Sum cube (superset fallbacks) and a Quantile cube.
// All of them must return the rows of the gather oracle.
func TestQuerierDifferential(t *testing.T) {
	t.Parallel()
	n := 300
	if testing.Short() {
		n = 60
	}
	kinds := []struct {
		name  string
		opts  Options
		ranks []float64
	}{
		{"full-sum", Options{Processors: 3}, nil},
		{"partial-sum", Options{Processors: 3, SelectedViews: [][]string{
			{"month", "store", "product", "channel"}, {"store", "channel"}, {"month"}, {},
		}}, nil},
		{"quantile", Options{Processors: 3, Aggregate: Quantile}, []float64{0, 0.5, 0.9, 1}},
	}
	for seed, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			t.Parallel()
			const base = 500
			rows, meas := randomFacts(base+150, int64(71+seed))
			leader := buildFromFacts(t, rows[:base], meas[:base], kind.opts)
			srv, err := leader.NewServer(ServerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			rs, err := leader.NewReplicaSet(ReplicaOptions{Replicas: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			defer cancel()

			rng := rand.New(rand.NewSource(int64(5 + seed)))
			fallbacks, ranked := 0, 0
			for i := 0; i < n; i++ {
				if i == n/2 {
					if _, err := leader.Ingest(rows[base:], meas[base:]); err != nil {
						t.Fatal(err)
					}
					waitReplicas(t, rs)
				}
				q := randomQuery(rng, kind.ranks)
				tag := fmt.Sprintf("query %d %+v", i, q)
				want, err := leader.gatherQuery(q)
				if err != nil {
					t.Fatalf("%s: oracle: %v", tag, err)
				}
				check := func(door string, got *View, err error) {
					t.Helper()
					if err != nil {
						t.Fatalf("%s: %s: %v", tag, door, err)
					}
					if !record.Equal(got.rows, want.rows) || !reflect.DeepEqual(got.Attributes, want.Attributes) ||
						got.Estimated != want.Estimated {
						t.Fatalf("%s: %s differs from the gather oracle\ngot  %v %v\nwant %v %v",
							tag, door, got.Attributes, got.rows, want.Attributes, want.rows)
					}
				}
				got, qm, err := leader.Do(ctx, q)
				check("Cube", got, err)
				if len(qm.SourceView) > len(q.Group)+len(q.Bounds) {
					fallbacks++
				}
				got, _, err = srv.Do(ctx, q)
				check("Server", got, err)
				got, qm, err = srv.Do(ctx, q)
				check("Server (repeat)", got, err)
				if !qm.CacheHit {
					t.Fatalf("%s: repeat on the server was not a cache hit: %+v", tag, qm)
				}
				got, _, err = rs.Do(ctx, q)
				check("ReplicaSet", got, err)
				if q.Percentile != nil && *q.Percentile != defaultPercentile {
					ranked++
				}
			}
			// The stream must have exercised what the kind is there for.
			if kind.opts.SelectedViews != nil && fallbacks == 0 {
				t.Fatal("no query on the partial cube fell back to a superset view")
			}
			if kind.ranks != nil && ranked == 0 {
				t.Fatal("no query on the quantile cube asked for a non-median rank")
			}
		})
	}
}

// TestQueryErrorsSameAtEveryDoor: a malformed query is the caller's
// mistake — Cube, Server and ReplicaSet must reject it with the same
// error, and the replica set must not count it against a replica (no
// retry, no breaker strike, no leader fallback).
func TestQueryErrorsSameAtEveryDoor(t *testing.T) {
	t.Parallel()
	ctx := context.Background()
	rows, meas := randomFacts(300, 17)
	type door struct {
		name string
		Querier
		aggregate func(dims []string, key []uint32) error
		rangeAgg  func(dims []string, lo, hi []uint32) error
	}
	// One strike opens a breaker, so a single misattributed error shows.
	ropts := ReplicaOptions{Replicas: 2, Resilience: ResilienceOptions{BreakerThreshold: 1, BreakerCooldown: time.Minute}}
	doors := func(agg Aggregate) ([]door, *ReplicaSet) {
		cube := buildFromFacts(t, rows, meas, Options{Processors: 2, Aggregate: agg})
		srv, err := cube.NewServer(ServerOptions{})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := cube.NewReplicaSet(ropts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rs.Close)
		return []door{
			{"Cube", cube,
				func(d []string, k []uint32) error { _, err := cube.Aggregate(d, k); return err },
				func(d []string, lo, hi []uint32) error { _, err := cube.RangeAggregate(d, lo, hi); return err }},
			{"Server", srv,
				func(d []string, k []uint32) error { _, _, err := srv.Aggregate(ctx, d, k); return err },
				func(d []string, lo, hi []uint32) error { _, _, err := srv.RangeAggregate(ctx, d, lo, hi); return err }},
			{"ReplicaSet", rs,
				func(d []string, k []uint32) error { _, _, err := rs.Aggregate(ctx, d, k); return err },
				func(d []string, lo, hi []uint32) error { _, _, err := rs.RangeAggregate(ctx, d, lo, hi); return err }},
		}, rs
	}
	sumDoors, sumRS := doors(Sum)
	quantDoors, quantRS := doors(Quantile)

	do := func(q Query) func(door) error {
		return func(d door) error { _, _, err := d.Do(ctx, q); return err }
	}
	rank := func(p float64) *float64 { return &p }
	cases := []struct {
		name  string
		doors []door
		run   func(door) error
	}{
		{"unknown group dimension", sumDoors, do(Query{Group: []string{"store", "nope"}})},
		{"dimension repeated in the group", sumDoors, do(Query{Group: []string{"store", "month", "store"}})},
		{"bound on an unknown dimension", sumDoors, do(Query{Group: []string{"store"}, Bounds: []Bound{{Dim: "nope", Lo: 1, Hi: 2}}})},
		{"lo > hi", sumDoors, do(Query{Bounds: []Bound{{Dim: "month", Lo: 7, Hi: 3}}})},
		{"dimension bounded twice", sumDoors, do(Query{Bounds: []Bound{{Dim: "month", Lo: 1, Hi: 3}, {Dim: "month", Lo: 2, Hi: 5}}})},
		{"Aggregate: dims/key length mismatch", sumDoors, func(d door) error {
			return d.aggregate([]string{"store", "month"}, []uint32{1})
		}},
		{"RangeAggregate: dims/lo/hi length mismatch", sumDoors, func(d door) error {
			return d.rangeAgg([]string{"store"}, []uint32{1}, []uint32{2, 3})
		}},
		{"RangeAggregate: lo > hi", sumDoors, func(d door) error {
			return d.rangeAgg([]string{"store"}, []uint32{9}, []uint32{2})
		}},
		{"rank above 1", quantDoors, do(Query{Group: []string{"channel"}, Percentile: rank(1.5)})},
		{"negative rank", quantDoors, do(Query{Group: []string{"channel"}, Percentile: rank(-0.1)})},
		{"NaN rank", quantDoors, do(Query{Group: []string{"channel"}, Percentile: rank(math.NaN())})},
		{"rank on a non-Quantile cube", sumDoors, do(Query{Group: []string{"channel"}, Percentile: rank(0.5)})},
	}
	for _, tc := range cases {
		first := tc.run(tc.doors[0])
		if first == nil {
			t.Errorf("%s: accepted by %s", tc.name, tc.doors[0].name)
			continue
		}
		for _, d := range tc.doors[1:] {
			if err := tc.run(d); err == nil || err.Error() != first.Error() {
				t.Errorf("%s: %s says %q, %s says %v", tc.name, tc.doors[0].name, first, d.name, err)
			}
		}
	}
	for _, rs := range []*ReplicaSet{sumRS, quantRS} {
		st := rs.Stats()
		if r := st.Resilience; r.Retries != 0 || r.BreakerOpens != 0 || r.LeaderFallbacks != 0 || st.Routed != 0 {
			t.Errorf("user errors reached the replicas: routed %d, %+v", st.Routed, r)
		}
		for i, rep := range st.Replicas {
			if rep.Breaker != "closed" {
				t.Errorf("replica %d breaker %s after user errors only", i, rep.Breaker)
			}
		}
	}
}

// TestFrontEndsShareQueryMethods lists the query methods of Cube,
// Server and ReplicaSet by reflection and fails if one front end has a
// method the others lack — the drift that once left the percentile
// entry point on Cube alone.
func TestFrontEndsShareQueryMethods(t *testing.T) {
	errType := reflect.TypeOf((*error)(nil)).Elem()
	queryMethods := func(v any) []string {
		var names []string
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumMethod(); i++ {
			m := typ.Method(i)
			// A query method answers with rows or with one measure.
			if n := m.Type.NumOut(); n < 2 || m.Type.Out(n-1) != errType ||
				(m.Type.Out(0) != reflect.TypeOf((*View)(nil)) && m.Type.Out(0).Kind() != reflect.Int64) {
				continue
			}
			// Cube.View gathers a materialized view as it is stored; it
			// takes no query and exists only where the slices live.
			if m.Name != "View" {
				names = append(names, m.Name)
			}
		}
		sort.Strings(names)
		return names
	}
	want := queryMethods((*Cube)(nil))
	if len(want) < 4 {
		t.Fatalf("reflection found only %v on *Cube", want)
	}
	for _, fe := range []any{(*Server)(nil), (*ReplicaSet)(nil)} {
		if got := queryMethods(fe); !reflect.DeepEqual(got, want) {
			t.Errorf("%T query methods %v, *Cube has %v", fe, got, want)
		}
	}
	var _ = []Querier{(*Cube)(nil), (*Server)(nil), (*ReplicaSet)(nil)}
}
