package rolap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lattice"
)

var allDims = []string{"month", "store", "product", "channel"}

// buildMinimal builds a cube materializing only the full view — the
// static-minimal starting point the advisor grows from.
func buildMinimal(t *testing.T, n int, seed int64, opts AdvisorOptions) (*Cube, *Advisor, func(dims []string, key []uint32) int64) {
	t.Helper()
	in, oracle := loadRandom(t, n, seed)
	cube, err := Build(in, Options{Processors: 3, SelectedViews: [][]string{allDims}})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := cube.NewAdvisor(opts)
	if err != nil {
		t.Fatal(err)
	}
	return cube, adv, oracle
}

// checkOracle compares a handful of aggregates against ground truth.
func checkOracle(t *testing.T, cube *Cube, oracle func([]string, []uint32) int64, tag string) {
	t.Helper()
	checks := []struct {
		dims []string
		key  []uint32
	}{
		{[]string{"store"}, []uint32{7}},
		{[]string{"store"}, []uint32{21}},
		{[]string{"month", "channel"}, []uint32{3, 1}},
		{[]string{"product"}, []uint32{11}},
		{nil, nil},
	}
	for _, c := range checks {
		got, err := cube.Aggregate(c.dims, c.key)
		if err != nil {
			t.Fatalf("%s: aggregate %v: %v", tag, c.dims, err)
		}
		if want := oracle(c.dims, c.key); got != want {
			t.Fatalf("%s: aggregate %v%v = %d, want %d", tag, c.dims, c.key, got, want)
		}
	}
}

func viewLive(c *Cube, dims []string) bool {
	v, err := c.in.viewOf(dims)
	if err != nil {
		panic(err)
	}
	_, ok := c.engine.Topology().Order(v)
	return ok
}

// checkSealed asserts every live view's slice is columnar on every rank
// holding one — what lets queries read compressed bytes and skip runs.
func checkSealed(t *testing.T, c *Cube, tag string) {
	t.Helper()
	for _, v := range c.engine.Topology().Views() {
		for r := 0; r < c.machine.P(); r++ {
			disk := c.machine.Proc(r).Disk()
			if f := core.ViewFile(v); disk.Has(f) && !disk.Sealed(f) {
				t.Fatalf("%s: view %v is row-form on rank %d (%d stored bytes)", tag, v, r, disk.StoredBytes(f))
			}
		}
	}
}

// checkStoredBytes asserts Metrics().OutputBytesStored is what the
// disks hold for the live views.
func checkStoredBytes(t *testing.T, c *Cube, tag string) {
	t.Helper()
	var want int64
	for _, v := range c.engine.Topology().Views() {
		want += core.ViewStoredBytes(c.machine, v)
	}
	if got := c.Metrics().OutputBytesStored; got != want {
		t.Fatalf("%s: OutputBytesStored = %d, disks hold %d", tag, got, want)
	}
}

// hammer sends n identical group-bys, the demand an advisor step needs
// to materialize the shape.
func hammer(t *testing.T, c *Cube, dims []string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.GroupBy(dims, nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAdvisedViewIsSealed: an online view goes live through the same
// commit as an ingest batch, so its slices are sealed when the step
// returns, not whenever a later Save or batch gets to them.
func TestAdvisedViewIsSealed(t *testing.T) {
	cube, adv, _ := buildMinimal(t, 2000, 1, AdvisorOptions{Seed: 5})
	hammer(t, cube, []string{"store"}, 12)
	if recs, err := adv.Step(); err != nil || len(recs) == 0 {
		t.Fatalf("step did %+v, err %v", recs, err)
	}
	if !viewLive(cube, []string{"store"}) {
		t.Fatal("hot view not materialized")
	}
	checkSealed(t, cube, "after step")
}

// TestOutputBytesStoredFollowsMaintenance: the stored-size metric is
// refreshed by every fold, not frozen at its build-time value.
func TestOutputBytesStoredFollowsMaintenance(t *testing.T) {
	cube, adv, _ := buildMinimal(t, 2000, 1, AdvisorOptions{Seed: 5})
	checkStoredBytes(t, cube, "after build")
	built := cube.Metrics().OutputBytesStored
	hammer(t, cube, []string{"store"}, 12)
	if _, err := adv.Step(); err != nil {
		t.Fatal(err)
	}
	checkStoredBytes(t, cube, "after materialize")
	if got := cube.Metrics().OutputBytesStored; got <= built {
		t.Fatalf("a new view left OutputBytesStored at %d (built %d)", got, built)
	}
	if _, err := cube.Ingest([][]uint32{{1, 2, 3, 1}, {11, 39, 24, 2}}, []int64{5, 7}); err != nil {
		t.Fatal(err)
	}
	checkStoredBytes(t, cube, "after ingest")
	if _, err := cube.retireView(mustView(t, cube, []string{"store"})); err != nil {
		t.Fatal(err)
	}
	checkStoredBytes(t, cube, "after retire")
}

// TestLoadedHolisticCubeChargesSketchPayloads: a restored cube runs on
// a fresh machine; the schedule prologue must install the sketch byte
// sizer there too, so an online view's h-relations cost what they cost
// on the cube the snapshot was taken from.
func TestLoadedHolisticCubeChargesSketchPayloads(t *testing.T) {
	rows, meas := holisticFacts(2000, 7)
	in, err := NewInput(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if err := in.AddRow(rows[i], meas[i]); err != nil {
			t.Fatal(err)
		}
	}
	built, err := Build(in, Options{Processors: 3, Aggregate: CountDistinct, SelectedViews: [][]string{allDims}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	moved := func(c *Cube) int64 {
		adv, err := c.NewAdvisor(AdvisorOptions{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		hammer(t, c, []string{"product"}, 12) // not a prefix of the full view's order
		if _, err := adv.Step(); err != nil {
			t.Fatal(err)
		}
		if !viewLive(c, []string{"product"}) {
			t.Fatal("hot view not materialized")
		}
		return adv.Stats().BuildBytesMoved
	}
	want, got := moved(built), moved(loaded)
	if want <= 0 || got != want {
		t.Fatalf("materialization moved %d charged bytes on the loaded cube, %d on the built one", got, want)
	}
}

func TestAdvisorMaterializesHotView(t *testing.T) {
	cube, adv, oracle := buildMinimal(t, 2000, 1, AdvisorOptions{Seed: 5})
	if got := len(cube.Views()); got != 1 {
		t.Fatalf("minimal cube has %d views, want 1", got)
	}

	// Hammer one small group-by; every query falls back to the full
	// view until the advisor reacts.
	for i := 0; i < 12; i++ {
		if _, err := cube.GroupBy([]string{"store"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := adv.Step()
	if err != nil {
		t.Fatal(err)
	}
	var made bool
	for _, r := range recs {
		if r.Action == "materialize" && reflect.DeepEqual(r.View, []string{"store"}) {
			made = true
			if r.EstRows <= 0 {
				t.Fatalf("materialization reported %d rows", r.EstRows)
			}
		}
	}
	if !made {
		t.Fatalf("hot view not materialized; step did %+v", recs)
	}
	if !viewLive(cube, []string{"store"}) {
		t.Fatal("materialized view not live in the engine")
	}

	st := adv.Stats()
	if st.Steps != 1 || st.Materialized < 1 || st.CurrentViews != len(cube.Views()) {
		t.Fatalf("stats %+v inconsistent", st)
	}
	if st.BuildSimSeconds <= 0 {
		t.Fatalf("online build charged no simulated time: %+v", st)
	}

	// Answers are unchanged, and the new view now serves directly.
	checkOracle(t, cube, oracle, "after materialize")
	vw, err := cube.GroupBy([]string{"store"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vw.Attributes, []string{"store"}) {
		t.Fatalf("GroupBy attributes %v", vw.Attributes)
	}
}

func TestAdvisorRetiresColdViews(t *testing.T) {
	in, oracle := loadRandom(t, 2000, 2)
	cube, err := Build(in, Options{Processors: 2}) // full cube: 16 views
	if err != nil {
		t.Fatal(err)
	}
	adv, err := cube.NewAdvisor(AdvisorOptions{RetirePerStep: 8, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// No traffic at all: everything except the frontier is cold.
	for i := 0; i < 3; i++ {
		if _, err := adv.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(cube.Views()); got != 1 {
		t.Fatalf("%d views left after retirement, want 1 (the full view)", got)
	}
	if !viewLive(cube, allDims) {
		t.Fatal("frontier full view was retired")
	}
	if st := adv.Stats(); st.Retired != 15 {
		t.Fatalf("Retired = %d, want 15", st.Retired)
	}
	// Every query now falls back to the full view — same answers.
	checkOracle(t, cube, oracle, "after retire")

	// Ingest still works against the shrunken topology (the retained
	// schedule trees were invalidated), and answers track the new rows.
	rows := [][]uint32{{1, 2, 3, 0}, {4, 5, 6, 1}}
	meas := []int64{10, 20}
	if _, err := cube.Ingest(rows, meas); err != nil {
		t.Fatal(err)
	}
	got, err := cube.Aggregate(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle(nil, nil) + 30; got != want {
		t.Fatalf("grand total after ingest = %d, want %d", got, want)
	}
}

// TestAdvisorConvergesAndAnswersMatchOracle drives a Zipf-skewed query
// mix against an adapting minimal cube, a static minimal cube and a
// static full cube, checking every answer agrees while the advisor
// grows a small working set. On the simulated clock, the last window's
// p50 must beat the static-minimal cube's and come within 1.25x of the
// full cube's; the "budget" case does so holding at most 35% of the
// lattice's 16 views.
func TestAdvisorConvergesAndAnswersMatchOracle(t *testing.T) {
	cases := []struct {
		name           string
		opts           AdvisorOptions
		steps, perStep int
		maxViews       int // most views the adapted cube may hold
	}{
		// MaxViews 6, plus one view of tolerance for the frontier.
		{"default", AdvisorOptions{MaxViews: 6, MaterializePerStep: 2, RetirePerStep: 1, Seed: 17}, 6, 30, 7},
		{"budget", AdvisorOptions{MaxViews: 16 * 35 / 100, MinFallbacks: 2, MaterializePerStep: 2, RetirePerStep: 1, Seed: 42}, 8, 25, 16 * 35 / 100},
	}
	// A skewed pool: two hot shapes dominate, tail shapes appear rarely.
	pool := [][]string{
		{"store"},
		{"month", "channel"},
		{"product"},
		{"store", "product"},
		{"month"},
		{"channel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			in, _ := loadRandom(t, 2500, 3)
			full, err := Build(in, Options{Processors: 3})
			if err != nil {
				t.Fatal(err)
			}
			static, _, _ := buildMinimal(t, 2500, 3, AdvisorOptions{})
			cube, adv, _ := buildMinimal(t, 2500, 3, tc.opts)
			groupBy := func(c *Cube, dims []string) (*View, float64) {
				vw, qm, err := c.Do(context.Background(), Query{Group: dims})
				if err != nil {
					t.Fatal(err)
				}
				return vw, qm.SimSeconds
			}

			rng := rand.New(rand.NewSource(99))
			var fullLat, staticLat, window []float64
			for step := 0; step < tc.steps; step++ {
				window = window[:0]
				for q := 0; q < tc.perStep; q++ {
					// Zipf-ish pick: shape k with weight ~1/2^k.
					k := 0
					for k < len(pool)-1 && rng.Intn(2) == 0 {
						k++
					}
					dims := pool[k]
					want, fl := groupBy(full, dims)
					fixed, sl := groupBy(static, dims)
					adapted, al := groupBy(cube, dims)
					fullLat, staticLat, window = append(fullLat, fl), append(staticLat, sl), append(window, al)
					for _, got := range []*View{fixed, adapted} {
						if got.Len() != want.Len() {
							t.Fatalf("step %d: %v rows %d vs full %d", step, dims, got.Len(), want.Len())
						}
						for i := 0; i < got.Len(); i++ {
							gk, gm := got.Row(i)
							wk, wm := want.Row(i)
							if gm != wm || !reflect.DeepEqual(gk, wk) {
								t.Fatalf("step %d: %v row %d: (%v,%d) vs full (%v,%d)", step, dims, i, gk, gm, wk, wm)
							}
						}
					}
				}
				if _, err := adv.Step(); err != nil {
					t.Fatal(err)
				}
				checkSealed(t, cube, fmt.Sprintf("step %d", step))
			}
			st := adv.Stats()
			if st.Materialized == 0 {
				t.Fatalf("advisor never materialized under sustained fallbacks: %+v", st)
			}
			if got := len(cube.Views()); got > tc.maxViews {
				t.Fatalf("advisor grew %d views, cap was %d", got, tc.maxViews)
			}
			// The hot shapes ended up materialized.
			if !viewLive(cube, []string{"store"}) {
				t.Fatal("hottest shape {store} not materialized after convergence")
			}
			p50 := func(lat []float64) float64 {
				s := append([]float64(nil), lat...)
				sort.Float64s(s)
				return s[(len(s)-1)/2]
			}
			last, fullP50, staticP50 := p50(window), p50(fullLat), p50(staticLat)
			if last >= staticP50 {
				t.Fatalf("last-window p50 %.3gs does not beat static-minimal %.3gs", last, staticP50)
			}
			if last > 1.25*fullP50 {
				t.Fatalf("last-window p50 %.3gs is %.2fx the full cube's %.3gs, cap 1.25x", last, last/fullP50, fullP50)
			}
		})
	}
}

// TestAdvisorDeterministic replays the same traffic transcript twice
// and requires identical recommendation transcripts and final view
// sets — the reproducibility contract for a fixed seed.
func TestAdvisorDeterministic(t *testing.T) {
	run := func() ([][]Recommendation, []ViewID) {
		cube, adv, _ := buildMinimal(t, 1500, 4, AdvisorOptions{Seed: 23, MaxViews: 5})
		var transcript [][]Recommendation
		shapes := [][]string{{"store"}, {"month", "channel"}, {"store"}, {"product"}}
		for step := 0; step < 4; step++ {
			for q := 0; q < 10; q++ {
				if _, err := cube.GroupBy(shapes[(step+q)%len(shapes)], nil); err != nil {
					t.Fatal(err)
				}
			}
			recs, err := adv.Step()
			if err != nil {
				t.Fatal(err)
			}
			transcript = append(transcript, recs)
		}
		var views []ViewID
		for _, v := range cube.engine.Topology().Views() {
			views = append(views, ViewID(v))
		}
		return transcript, views
	}
	t1, v1 := run()
	t2, v2 := run()
	if !reflect.DeepEqual(t1, t2) {
		t.Fatalf("recommendation transcripts differ:\n%+v\nvs\n%+v", t1, t2)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatalf("final view sets differ: %v vs %v", v1, v2)
	}
}

// ViewID re-exports the lattice view identifier for test assertions.
type ViewID = lattice.ViewID

// TestAdvisorConcurrentWithServingAndIngest races Advisor.Step against
// live server traffic and ingest batches: the advisor's topology
// mutations must never produce a wrong answer, a failed query, or a
// data race (run under -race).
func TestAdvisorConcurrentWithServingAndIngest(t *testing.T) {
	in, _ := loadRandom(t, 2000, 5)
	cube, err := Build(in, Options{Processors: 2, SelectedViews: [][]string{allDims}})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := cube.NewAdvisor(AdvisorOptions{Seed: 31, MaxViews: 6, MinFallbacks: 2})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := cube.NewServer(ServerOptions{Workers: 4, QueueDepth: 200})
	if err != nil {
		t.Fatal(err)
	}

	shapes := [][]string{{"store"}, {"month"}, {"product", "channel"}, {"store", "product"}, nil}
	ctx := context.Background()
	var wg sync.WaitGroup
	errCh := make(chan error, 16)

	// Serving traffic.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				dims := shapes[(w+i)%len(shapes)]
				if _, _, err := srv.GroupBy(ctx, dims, nil); err != nil {
					var ov *OverloadError
					if errors.As(err, &ov) {
						continue // shedding is allowed under pressure
					}
					errCh <- fmt.Errorf("serve %v: %w", dims, err)
					return
				}
			}
		}(w)
	}
	// Advisor stepping.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := adv.Step(); err != nil {
				errCh <- fmt.Errorf("advisor: %w", err)
				return
			}
		}
	}()
	// Ingest batches.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < 5; b++ {
			rows := [][]uint32{{uint32(b % 12), 1, 2, 0}, {3, uint32(b % 40), 4, 1}}
			if _, err := cube.Ingest(rows, []int64{1, 1}); err != nil {
				errCh <- fmt.Errorf("ingest: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Post-race sanity: the cube still answers, and the grand total
	// reflects the base data plus all ten ingested rows.
	want, err := cube.Aggregate(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	static, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	base, err := static.Aggregate(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want != base+10 {
		t.Fatalf("grand total %d, want %d", want, base+10)
	}
}

// TestServerPerViewStats checks the serving-side demand counters the
// advisor and `cubeql -stats` consume: exact hits, superset fallbacks,
// and cache hits are credited to the TARGET view, not the source.
func TestServerPerViewStats(t *testing.T) {
	cube, _, _ := buildMinimal(t, 1000, 8, AdvisorOptions{})
	srv, err := cube.NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 3; i++ { // first executes, rest hit the cache
		if _, _, err := srv.GroupBy(ctx, []string{"store"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := srv.GroupBy(ctx, allDims, nil); err != nil {
		t.Fatal(err)
	}

	st := srv.Stats()
	storeKey := "store"
	fullKey := "channel,month,product,store"
	vs, ok := st.Views[storeKey]
	if !ok {
		t.Fatalf("no per-view stats for %q: %+v", storeKey, st.Views)
	}
	if vs.Hits != 0 || vs.Fallbacks != 3 {
		t.Fatalf("store stats %+v, want 3 fallbacks", vs)
	}
	if vs.CacheHits != 2 {
		t.Fatalf("store CacheHits = %d, want 2", vs.CacheHits)
	}
	if vs.RowsScanned <= 0 {
		t.Fatalf("store RowsScanned = %d", vs.RowsScanned)
	}
	fs, ok := st.Views[fullKey]
	if !ok || fs.Hits != 1 || fs.Fallbacks != 0 {
		t.Fatalf("full-view stats %+v (ok=%v), want 1 hit", fs, ok)
	}
	// Stats() copies: mutating the copy must not leak back.
	st.Views[storeKey] = ViewServeStats{Hits: 99}
	if srv.Stats().Views[storeKey].Hits != 0 {
		t.Fatal("ServerStats.Views aliases server state")
	}
}

func TestNewAdvisorRejects(t *testing.T) {
	in, _ := loadRandom(t, 500, 6)
	ice, err := Build(in, Options{Processors: 2, MinSupport: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ice.NewAdvisor(AdvisorOptions{}); err == nil {
		t.Fatal("iceberg cube accepted")
	}
	in2, _ := loadRandom(t, 500, 6)
	cube, err := Build(in2, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cube.NewAdvisor(AdvisorOptions{DecayFactor: 1.5}); err == nil {
		t.Fatal("bad decay factor accepted")
	}
}

func TestAdvisorRunStepsOnTicker(t *testing.T) {
	cube, adv, _ := buildMinimal(t, 800, 7, AdvisorOptions{Interval: time.Millisecond, Seed: 3})
	_ = cube
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := adv.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if st := adv.Stats(); st.Steps == 0 {
		t.Fatal("Run made no steps before cancellation")
	}
}
