package rolap

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/lattice"
	"repro/internal/record"
)

func buildServedCube(t *testing.T, n int, p int) (*Cube, func(dims []string, key []uint32) int64) {
	t.Helper()
	in, oracle := loadRandom(t, n, 31)
	cube, err := Build(in, Options{Processors: p})
	if err != nil {
		t.Fatal(err)
	}
	return cube, oracle
}

func TestServerGroupByAndCacheHit(t *testing.T) {
	cube, oracle := buildServedCube(t, 600, 3)
	s, err := cube.NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	vw, qm, err := s.GroupBy(ctx, []string{"store", "month"}, map[string]uint32{"channel": 1})
	if err != nil {
		t.Fatal(err)
	}
	if qm.CacheHit {
		t.Fatal("first query reported a cache hit")
	}
	if qm.SimSeconds <= 0 || qm.RowsScanned <= 0 {
		t.Fatalf("first query charged nothing: %+v", qm)
	}
	if len(qm.SourceView) == 0 {
		t.Fatalf("no source view reported: %+v", qm)
	}
	// Spot-check one group against the brute-force oracle.
	for i := 0; i < vw.Len(); i++ {
		key, meas := vw.Row(i)
		if want := oracle([]string{"store", "month", "channel"}, []uint32{key[0], key[1], 1}); meas != want {
			t.Fatalf("group %v = %d, oracle %d", key, meas, want)
		}
	}

	vw2, qm2, err := s.GroupBy(ctx, []string{"store", "month"}, map[string]uint32{"channel": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !qm2.CacheHit {
		t.Fatal("identical repeat was not a cache hit")
	}
	if qm2.SimSeconds != 0 || qm2.RowsScanned != 0 || qm2.BytesMoved != 0 {
		t.Fatalf("cache hit charged work: %+v", qm2)
	}
	if !record.Equal(vw.rows, vw2.rows) {
		t.Fatal("cache hit returned different rows")
	}

	st := s.Stats()
	if st.Queries != 2 || st.CacheHits != 1 {
		t.Fatalf("stats = %+v, want 2 queries / 1 hit", st)
	}
	if st.SimSeconds <= 0 || st.RowsScanned <= 0 {
		t.Fatalf("stats missing cost totals: %+v", st)
	}
}

func TestServerAggregateAndRange(t *testing.T) {
	cube, oracle := buildServedCube(t, 500, 2)
	s, err := cube.NewServer(ServerOptions{CacheSize: -1}) // caching off
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	got, _, err := s.Aggregate(ctx, []string{"month", "channel"}, []uint32{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle([]string{"month", "channel"}, []uint32{3, 1}); got != want {
		t.Fatalf("aggregate = %d, oracle %d", got, want)
	}

	// Range over all months of one channel == channel total.
	got, _, err = s.RangeAggregate(ctx, []string{"month", "channel"}, []uint32{0, 2}, []uint32{11, 2})
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle([]string{"channel"}, []uint32{2}); got != want {
		t.Fatalf("range aggregate = %d, oracle %d", got, want)
	}
}

func TestServerAdmissionControl(t *testing.T) {
	cube, _ := buildServedCube(t, 200, 2)
	s, err := cube.NewServer(ServerOptions{Workers: 1, QueueDepth: -1}) // no queue
	if err != nil {
		t.Fatal(err)
	}
	// Occupy the only worker slot directly, then any arrival must be
	// rejected rather than queued.
	s.sem <- struct{}{}
	_, _, err = s.GroupBy(context.Background(), []string{"month"}, nil)
	if !errors.Is(err, ErrServerOverloaded) {
		t.Fatalf("err = %v, want ErrServerOverloaded", err)
	}
	if s.Stats().Rejected != 1 {
		t.Fatalf("rejected = %d, want 1", s.Stats().Rejected)
	}
	<-s.sem
}

func TestServerDeadline(t *testing.T) {
	cube, _ := buildServedCube(t, 200, 2)
	s, err := cube.NewServer(ServerOptions{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.sem <- struct{}{} // wedge the worker so the query has to queue
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, _, err = s.GroupBy(ctx, []string{"month"}, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if s.Stats().Expired != 1 {
		t.Fatalf("expired = %d, want 1", s.Stats().Expired)
	}
	<-s.sem

	// With the worker free again the same query succeeds.
	if _, _, err := s.GroupBy(context.Background(), []string{"month"}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestServerConcurrentCorrectness(t *testing.T) {
	cube, oracle := buildServedCube(t, 800, 4)
	s, err := cube.NewServer(ServerOptions{Workers: 4, QueueDepth: 100})
	if err != nil {
		t.Fatal(err)
	}
	dims := []string{"month", "store", "product", "channel"}
	cards := []uint32{12, 40, 25, 3}
	var wg sync.WaitGroup
	errs := make(chan error, 40)
	for w := 0; w < 20; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			d := dims[w%4]
			val := uint32(w) % cards[(w+1)%4]
			got, _, err := s.Aggregate(context.Background(), []string{d, dims[(w+1)%4]}, []uint32{uint32(w) % cards[w%4], val})
			if err != nil {
				errs <- err
				return
			}
			want := oracle([]string{d, dims[(w+1)%4]}, []uint32{uint32(w) % cards[w%4], val})
			if got != want {
				errs <- errors.New("concurrent aggregate mismatch")
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Queries != 20 {
		t.Fatalf("served %d queries, want 20", st.Queries)
	}
}

// TestServerCacheVersionValidation pins the execution-time version
// stamp: a result cached before an ingest batch must not be served
// after the batch replaces its source view, and the refreshed entry
// must carry the post-batch version (a stamp read before execution
// would permanently poison the key).
func TestServerCacheVersionValidation(t *testing.T) {
	rows, meas := randomFacts(500, 419)
	base := 400
	cube := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 2})
	s, err := cube.NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var want int64
	for _, m := range meas[:base] {
		want += m
	}
	got, qm, err := s.Aggregate(ctx, nil, nil)
	if err != nil || got != want {
		t.Fatalf("pre-batch total %d (%v), want %d", got, err, want)
	}
	if qm.CacheHit {
		t.Fatal("first query hit an empty cache")
	}
	if _, qm, err = s.Aggregate(ctx, nil, nil); err != nil || !qm.CacheHit {
		t.Fatalf("repeat before the batch: hit=%v err=%v", qm.CacheHit, err)
	}

	// The batch bumps the grand-total view's version: the cached entry
	// is stale and must fall through to execution, not serve the
	// pre-batch value.
	if _, err := cube.Ingest(rows[base:], meas[base:]); err != nil {
		t.Fatal(err)
	}
	for _, m := range meas[base:] {
		want += m
	}
	got, qm, err = s.Aggregate(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if qm.CacheHit {
		t.Fatal("stale cache entry served after the batch")
	}
	if got != want {
		t.Fatalf("post-batch total %d, want %d", got, want)
	}
	// The refreshed entry is valid at the new version.
	got, qm, err = s.Aggregate(ctx, nil, nil)
	if err != nil || !qm.CacheHit || got != want {
		t.Fatalf("repeat after refresh: total %d hit=%v err=%v, want %d hit", got, qm.CacheHit, err, want)
	}
}

// TestServerCacheVersionUnderConcurrentIngest hammers the plan/execute
// window the version stamp closes: queries race ingest batches, and
// every served total must be a committed boundary value — a cache entry
// filed under a stale version would replay an old total after newer
// batches landed.
func TestServerCacheVersionUnderConcurrentIngest(t *testing.T) {
	rows, meas := randomFacts(900, 421)
	base := 300
	cube := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 2})
	s, err := cube.NewServer(ServerOptions{Workers: 4, QueueDepth: 100})
	if err != nil {
		t.Fatal(err)
	}

	allowed := map[int64]bool{}
	var total int64
	for _, m := range meas[:base] {
		total += m
	}
	allowed[total] = true
	lowWater := total
	const batch = 60
	for lo := base; lo < len(rows); lo += batch {
		for _, m := range meas[lo : lo+batch] {
			total += m
		}
		allowed[total] = true
	}

	done := make(chan error, 1)
	go func() {
		for lo := base; lo < len(rows); lo += batch {
			if _, err := cube.Ingest(rows[lo:lo+batch], meas[lo:lo+batch]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	ctx := context.Background()
	ingesting := true
	for ingesting {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			ingesting = false
		default:
		}
		got, _, err := s.Aggregate(ctx, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !allowed[got] {
			t.Fatalf("served total %d is not any committed boundary", got)
		}
		// Once a total is observed, nothing older may be served again:
		// measures are non-negative, so boundaries increase with commit
		// order, and a served regression means a stale cache replay.
		if got < lowWater {
			t.Fatalf("served total regressed from %d to %d — stale cache entry replayed", lowWater, got)
		}
		lowWater = got
	}
	got, _, err := s.Aggregate(ctx, nil, nil)
	if err != nil || got != total {
		t.Fatalf("final total %d (%v), want %d", got, err, total)
	}
}

// TestServerSimSecondsSumsQueries: the server's SimSeconds total is the
// sum of the per-query SimSeconds it reported, to within a nanosecond
// per query, whatever the charges' sub-microsecond parts.
func TestServerSimSecondsSumsQueries(t *testing.T) {
	cube, _ := buildServedCube(t, 1500, 3)
	s, err := cube.NewServer(ServerOptions{CacheSize: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var sum float64
	const n = 300
	for i := 0; i < n; i++ {
		_, qm, err := s.Do(context.Background(), randomQuery(rng, nil))
		if err != nil {
			t.Fatal(err)
		}
		sum += qm.SimSeconds
	}
	if got := s.Stats().SimSeconds; math.Abs(got-sum) > n*1e-9 {
		t.Fatalf("ServerStats.SimSeconds = %.12f, per-query sum %.12f (off by %.3g s over %d queries)", got, sum, got-sum, n)
	}
}

// TestServerCacheFollowsSourceView: a cache entry is keyed by the
// logical query and stamped with the view and version its execution
// ran against. Adding a smaller cover leaves that source live at its
// version, so the entry still hits; retiring the source makes it miss,
// and the re-execution answers from a surviving view.
func TestServerCacheFollowsSourceView(t *testing.T) {
	in, _ := loadRandom(t, 800, 37)
	mid := []string{"month", "store", "channel"}
	cube, err := Build(in, Options{Processors: 3, SelectedViews: [][]string{allDims, mid}})
	if err != nil {
		t.Fatal(err)
	}
	s, err := cube.NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	dims, filters := []string{"store"}, map[string]uint32{"channel": 1}
	names := func(dims ...string) []string {
		out := append([]string(nil), dims...)
		sort.Strings(out)
		return out
	}
	viewOf := func(dims []string) lattice.ViewID {
		v, err := cube.in.viewOf(dims)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}

	first, qm, err := s.GroupBy(ctx, dims, filters)
	if err != nil {
		t.Fatal(err)
	}
	if qm.CacheHit || !reflect.DeepEqual(qm.SourceView, names(mid...)) {
		t.Fatalf("first query: hit=%v source %v, want a miss from %v", qm.CacheHit, qm.SourceView, names(mid...))
	}

	// A smaller cover goes live; the entry's source is untouched.
	cube.ingMu.Lock()
	_, err = cube.materializeView(viewOf([]string{"store", "channel"}))
	cube.ingMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	vw, qm, err := s.GroupBy(ctx, dims, filters)
	if err != nil {
		t.Fatal(err)
	}
	if !qm.CacheHit || !reflect.DeepEqual(qm.SourceView, names(mid...)) {
		t.Fatalf("after adding a smaller cover: hit=%v source %v, want a hit from %v", qm.CacheHit, qm.SourceView, names(mid...))
	}
	if !record.Equal(vw.rows, first.rows) {
		t.Fatal("cache hit returned different rows")
	}

	// Retiring the entry's source makes it miss.
	cube.ingMu.Lock()
	retired, err := cube.retireView(viewOf(mid))
	cube.ingMu.Unlock()
	if err != nil || !retired {
		t.Fatalf("retiring %v: retired=%v err=%v", mid, retired, err)
	}
	vw, qm, err = s.GroupBy(ctx, dims, filters)
	if err != nil {
		t.Fatal(err)
	}
	if qm.CacheHit || !reflect.DeepEqual(qm.SourceView, names("store", "channel")) {
		t.Fatalf("after retiring the source: hit=%v source %v, want a miss from [channel store]", qm.CacheHit, qm.SourceView)
	}
	want, err := cube.gatherQuery(eqQuery(dims, filters))
	if err != nil {
		t.Fatal(err)
	}
	if !record.Equal(vw.rows, want.rows) {
		t.Fatalf("re-executed answer differs from the gather oracle\ngot  %v\nwant %v", vw.rows, want.rows)
	}
}
