package rolap

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/record"
)

// holisticFacts builds deterministic facts whose measures are values in
// [0, 100): below the quantile sketch's exact-code range and with
// per-group distinct counts far under the exact threshold, so both
// sketches answer exactly and the oracle comparison is equality.
func holisticFacts(n int, seed uint64) ([][]uint32, []int64) {
	cards := []int{12, 40, 25, 3}
	x := seed | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	rows := make([][]uint32, n)
	meas := make([]int64, n)
	for i := 0; i < n; i++ {
		r := make([]uint32, len(cards))
		for j, c := range cards {
			r[j] = uint32(next() % uint64(c))
		}
		rows[i] = r
		meas[i] = int64(next() % 100)
	}
	return rows, meas
}

func buildHolisticCube(t testing.TB, rows [][]uint32, meas []int64, agg Aggregate) *Cube {
	t.Helper()
	in, err := NewInput(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if err := in.AddRow(rows[i], meas[i]); err != nil {
			t.Fatal(err)
		}
	}
	cube, err := Build(in, Options{Processors: 3, Aggregate: agg})
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

// holisticGroups group-bys the fact list over dims (with equality
// filters), returning each group's measure multiset.
func holisticGroups(rows [][]uint32, meas []int64, dims []string, filters map[string]uint32) map[string][]int64 {
	names := []string{"month", "store", "product", "channel"}
	col := map[string]int{}
	for j, nm := range names {
		col[nm] = j
	}
	out := map[string][]int64{}
	for i, r := range rows {
		ok := true
		for nm, v := range filters {
			if r[col[nm]] != v {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		key := ""
		for _, d := range dims {
			key += string(rune(r[col[d]])) + ","
		}
		out[key] = append(out[key], meas[i])
	}
	return out
}

func distinctOf(vals []int64) int64 {
	set := map[int64]bool{}
	for _, v := range vals {
		set[v] = true
	}
	return int64(len(set))
}

func quantileOf(vals []int64, q float64) int64 {
	s := append([]int64(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[int(q*float64(len(s)-1))]
}

func wantMeasure(agg Aggregate, vals []int64, pct float64) int64 {
	if agg == CountDistinct {
		return distinctOf(vals)
	}
	return quantileOf(vals, pct)
}

// checkHolisticGroupBy compares a GroupBy result against the fact-list
// oracle at percentile pct (ignored for CountDistinct).
func checkHolisticGroupBy(t *testing.T, cube *Cube, rows [][]uint32, meas []int64, agg Aggregate, dims []string, filters map[string]uint32, pct float64) {
	t.Helper()
	var vw *View
	var err error
	if pct == 0.5 {
		vw, err = cube.GroupBy(dims, filters)
	} else {
		q := eqQuery(dims, filters)
		q.Percentile = &pct
		vw, _, err = cube.Do(context.Background(), q)
	}
	if err != nil {
		t.Fatal(err)
	}
	if !vw.Estimated {
		t.Fatalf("holistic GroupBy %v result not marked Estimated", dims)
	}
	oracle := holisticGroups(rows, meas, dims, filters)
	if vw.Len() != len(oracle) {
		t.Fatalf("GroupBy %v: %d groups, oracle %d", dims, vw.Len(), len(oracle))
	}
	for i := 0; i < vw.Len(); i++ {
		key, got := vw.Row(i)
		k := ""
		for _, v := range key {
			k += string(rune(v)) + ","
		}
		vals, ok := oracle[k]
		if !ok {
			t.Fatalf("GroupBy %v: group %v not in oracle", dims, key)
		}
		if want := wantMeasure(agg, vals, pct); got != want {
			t.Fatalf("GroupBy %v group %v: got %d, want %d (%d values)", dims, key, got, want, len(vals))
		}
	}
}

func TestHolisticCubeEndToEnd(t *testing.T) {
	for _, agg := range []Aggregate{CountDistinct, Quantile} {
		rows, meas := holisticFacts(900, 41)
		cube := buildHolisticCube(t, rows, meas, agg)
		if m := cube.Metrics(); m.SketchBytes <= 0 {
			t.Fatalf("%v cube SketchBytes = %d, want > 0", agg, m.SketchBytes)
		}

		// Materialized view reads serve estimates and say so.
		vw, err := cube.View([]string{"channel"})
		if err != nil {
			t.Fatal(err)
		}
		if !vw.Estimated {
			t.Fatalf("%v View not marked Estimated", agg)
		}
		oracle := holisticGroups(rows, meas, []string{"channel"}, nil)
		for i := 0; i < vw.Len(); i++ {
			key, got := vw.Row(i)
			vals := oracle[string(rune(key[0]))+","]
			if want := wantMeasure(agg, vals, 0.5); got != want {
				t.Fatalf("%v View channel=%d: got %d, want %d", agg, key[0], got, want)
			}
		}

		// Distributed GroupBy, with and without filters.
		checkHolisticGroupBy(t, cube, rows, meas, agg, []string{"store"}, nil, 0.5)
		checkHolisticGroupBy(t, cube, rows, meas, agg, []string{"month", "channel"}, map[string]uint32{"store": 3}, 0.5)

		// Point query (exact view and superset-scan fallback).
		for _, dims := range [][]string{{"channel"}, {"month", "store", "product", "channel"}} {
			g := holisticGroups(rows, meas, dims, nil)
			for k := range g {
				key := make([]uint32, 0, len(dims))
				for _, r := range k {
					if r != ',' {
						key = append(key, uint32(r))
					}
				}
				got, err := cube.Aggregate(dims, key)
				if err != nil {
					t.Fatal(err)
				}
				if want := wantMeasure(agg, g[k], 0.5); got != want {
					t.Fatalf("%v Aggregate %v %v: got %d, want %d", agg, dims, key, got, want)
				}
				break
			}
		}

		// Range aggregate pools the matching groups' sketches.
		got, err := cube.RangeAggregate([]string{"month"}, []uint32{2}, []uint32{6})
		if err != nil {
			t.Fatal(err)
		}
		var pooled []int64
		for i, r := range rows {
			if r[0] >= 2 && r[0] <= 6 {
				pooled = append(pooled, meas[i])
			}
		}
		if want := wantMeasure(agg, pooled, 0.5); got != want {
			t.Fatalf("%v RangeAggregate month in [2,6]: got %d, want %d", agg, got, want)
		}

		// Incremental ingest extends the sketches.
		brows, bmeas := holisticFacts(250, 977)
		if _, err := cube.Ingest(brows, bmeas); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, brows...)
		meas = append(meas, bmeas...)
		checkHolisticGroupBy(t, cube, rows, meas, agg, []string{"store"}, nil, 0.5)

		// Save / load round-trips the sketch blobs; the loaded cube
		// serves identically and keeps ingesting.
		var buf bytes.Buffer
		if err := cube.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadCube(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.opts.Aggregate != agg {
			t.Fatalf("loaded aggregate %v, want %v", loaded.opts.Aggregate, agg)
		}
		checkHolisticGroupBy(t, loaded, rows, meas, agg, []string{"store"}, nil, 0.5)
		checkHolisticGroupBy(t, loaded, rows, meas, agg, []string{"month", "channel"}, map[string]uint32{"store": 3}, 0.5)
		crows, cmeas := holisticFacts(120, 5557)
		if _, err := loaded.Ingest(crows, cmeas); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, crows...)
		meas = append(meas, cmeas...)
		checkHolisticGroupBy(t, loaded, rows, meas, agg, []string{"channel"}, nil, 0.5)
	}
}

func TestGroupByPercentile(t *testing.T) {
	rows, meas := holisticFacts(800, 99)
	cube := buildHolisticCube(t, rows, meas, Quantile)
	for _, pct := range []float64{0, 0.25, 0.9, 1} {
		checkHolisticGroupBy(t, cube, rows, meas, Quantile, []string{"channel"}, nil, pct)
	}
}

func TestHolisticBuildValidation(t *testing.T) {
	in, err := NewInput(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	if err := in.AddRow([]uint32{1, 2, 3, 0}, -7); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(in, Options{Processors: 2, Aggregate: CountDistinct}); err == nil {
		t.Fatal("negative measures must be rejected on a holistic build")
	}
	in2, _ := NewInput(testSchema())
	_ = in2.AddRow([]uint32{1, 2, 3, 0}, 5)
	if _, err := Build(in2, Options{Processors: 2, Aggregate: Quantile, MinSupport: 3}); err == nil {
		t.Fatal("iceberg thresholds must be rejected on a holistic build")
	}
	cube := buildHolisticCube(t, [][]uint32{{1, 2, 3, 0}}, []int64{5}, Quantile)
	if _, err := cube.Ingest([][]uint32{{1, 2, 3, 1}}, []int64{-4}); err == nil {
		t.Fatal("negative measures must be rejected on holistic ingest")
	}
}

// TestSketchEstimatesWithinBound checks holistic estimates in the
// approximate regime, where the tests above (exact by construction)
// cannot look: distinct counts from far below to far above the
// sketch's exact threshold (4096), and percentile ranks over
// heavy-tailed values up to 1e6. Every group of the grand total,
// {channel} and {month} must come within 5% of the exact oracle.
func TestSketchEstimatesWithinBound(t *testing.T) {
	const bound = 0.05
	rows, _ := holisticFacts(24000, 7)
	rng := rand.New(rand.NewSource(7))
	check := func(cube *Cube, meas []int64, agg Aggregate, pct float64) {
		t.Helper()
		for _, dims := range [][]string{nil, {"channel"}, {"month"}} {
			q := Query{Group: dims}
			what := "distinct count"
			if agg == Quantile {
				q.Percentile = &pct
				what = fmt.Sprintf("p%g", 100*pct)
			}
			vw, _, err := cube.Do(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			oracle := holisticGroups(rows, meas, dims, nil)
			for i := 0; i < vw.Len(); i++ {
				key, got := vw.Row(i)
				k := ""
				for _, v := range key {
					k += string(rune(v)) + ","
				}
				want := wantMeasure(agg, oracle[k], pct)
				if rel := math.Abs(float64(got-want)) / float64(want); rel > bound {
					t.Errorf("%s of %v group %v: estimate %d, exact %d (rel err %.3f > %.2f)", what, dims, key, got, want, rel, bound)
				}
			}
		}
	}
	for _, card := range []int64{1000, 8000, 1 << 40} {
		meas := make([]int64, len(rows))
		for i := range meas {
			meas[i] = rng.Int63n(card)
		}
		check(buildHolisticCube(t, rows, meas, CountDistinct), meas, CountDistinct, 0.5)
	}
	meas := make([]int64, len(rows))
	for i := range meas {
		meas[i] = 1 + int64(math.Exp(rng.Float64()*math.Log(1e6)))
	}
	cube := buildHolisticCube(t, rows, meas, Quantile)
	for _, pct := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		check(cube, meas, Quantile, pct)
	}
}

// TestHolisticReplicaSet ships a quantile cube through the replica
// tier: snapshot bootstrap carries the sketch blobs, delta batches
// re-aggregate deterministically, and replica reads match the leader.
func TestHolisticReplicaSet(t *testing.T) {
	rows, meas := holisticFacts(700, 313)
	base := 500
	leader := buildHolisticCube(t, rows[:base], meas[:base], Quantile)
	rs, err := leader.NewReplicaSet(ReplicaOptions{Replicas: 2, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	for lo := base; lo < len(rows); lo += 100 {
		hi := lo + 100
		if hi > len(rows) {
			hi = len(rows)
		}
		if _, err := leader.Ingest(rows[lo:hi], meas[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	waitReplicas(t, rs)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	want, err := leader.GroupBy([]string{"channel"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := rs.GroupBy(ctx, []string{"channel"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Estimated {
		t.Fatal("replica GroupBy result not marked Estimated")
	}
	if got.Len() != want.Len() {
		t.Fatalf("replica GroupBy %d groups, leader %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		wk, wm := want.Row(i)
		gk, gm := got.Row(i)
		if wm != gm || wk[0] != gk[0] {
			t.Fatalf("replica row %d (%v, %d) != leader (%v, %d)", i, gk, gm, wk, wm)
		}
	}
	oracle := holisticGroups(rows, meas, []string{"channel"}, nil)
	for i := 0; i < want.Len(); i++ {
		k, m := want.Row(i)
		if w := quantileOf(oracle[string(rune(k[0]))+","], 0.5); m != w {
			t.Fatalf("leader channel=%d median %d, oracle %d", k[0], m, w)
		}
	}

	// A non-median rank is served by the replicas too.
	p90 := 0.9
	q := Query{Group: []string{"channel"}, Percentile: &p90}
	want, _, err = leader.Do(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = rs.Do(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !record.Equal(got.rows, want.rows) {
		t.Fatalf("replica p90 %v != leader p90 %v", got.rows, want.rows)
	}
	for i := 0; i < want.Len(); i++ {
		k, m := want.Row(i)
		if w := quantileOf(oracle[string(rune(k[0]))+","], 0.9); m != w {
			t.Fatalf("leader channel=%d p90 %d, oracle %d", k[0], m, w)
		}
	}
}

// retainedSketchBytes is every sketch byte the cube keeps: the blobs
// in every file on every processor's disk, view or not. A holistic
// cube keeps its state nowhere else.
func retainedSketchBytes(c *Cube) int64 {
	var n int64
	c.engine.Maintain(func() error {
		for r := 0; r < c.machine.P(); r++ {
			disk := c.machine.Proc(r).Disk()
			for _, f := range disk.Files() {
				n += int64(disk.StateBytes(f))
			}
		}
		return nil
	})
	return n
}

// TestHolisticCubeRetainsOnlyLiveState is the regression test for
// sketch state outliving the rows that referenced it. A CountDistinct
// cube ingests ten batches, each followed by queries whose merges fold
// sketches of their own: after every batch the cube retains exactly
// the blobs its live view slices hold, Metrics().SketchBytes reports
// them, and they grow with the groups, not with the merges that
// superseded earlier blobs.
func TestHolisticCubeRetainsOnlyLiveState(t *testing.T) {
	rows, meas := holisticFacts(4000, 41)
	cube := buildHolisticCube(t, rows, meas, CountDistinct)
	built := cube.Metrics().SketchBytes
	for b := 0; b < 10; b++ {
		brows, bmeas := holisticFacts(400, uint64(1000+b))
		if _, err := cube.Ingest(brows, bmeas); err != nil {
			t.Fatal(err)
		}
		for _, g := range [][]string{nil, {"month"}, {"store", "channel"}} {
			if _, _, err := cube.Do(context.Background(), Query{Group: g}); err != nil {
				t.Fatal(err)
			}
		}
		live, retained := cube.Metrics().SketchBytes, retainedSketchBytes(cube)
		if retained != live {
			t.Fatalf("after batch %d the cube retains %d sketch bytes, its live slices hold %d", b+1, retained, live)
		}
	}
	// 8,000 facts in all, double the build's: the live state may
	// double, it may not grow by the merges that replaced it.
	if live := cube.Metrics().SketchBytes; live <= built || live > 3*built {
		t.Fatalf("live sketch state %d bytes after ingest, %d after the build", live, built)
	}
}
