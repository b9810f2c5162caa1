package rolap

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/record"
)

// chaosAnswer runs query k of a fixed, deterministic query mix over
// the test schema — a rotation of range aggregates, point lookups, and
// group-bys — and encodes its answer.
func chaosAnswer(ctx context.Context, rs *ReplicaSet, k int) (string, error) {
	switch k % 3 {
	case 0:
		got, _, err := rs.Aggregate(ctx, []string{"month", "channel"}, []uint32{uint32(k % 12), uint32(k % 3)})
		return fmt.Sprintf("a%d=%d", k, got), err
	case 1:
		got, _, err := rs.RangeAggregate(ctx, []string{"store"}, []uint32{uint32(k % 20)}, []uint32{uint32(k%20) + 10})
		return fmt.Sprintf("r%d=%d", k, got), err
	default:
		vw, _, err := rs.GroupBy(ctx, []string{"month"}, map[string]uint32{"channel": uint32(k % 3)})
		if err != nil {
			return "", err
		}
		rows := fmt.Sprintf("g%d=", k)
		for i := 0; i < vw.Len(); i++ {
			key, m := vw.Row(i)
			rows += fmt.Sprintf("(%v:%d)", key, m)
		}
		return rows, nil
	}
}

// chaosWorkload answers queries 0..n-1 of chaosAnswer's mix from
// `workers` concurrent clients and returns the transcript in query
// order. The same workload run against any serving tier over the same
// facts must produce the same transcript; any failed query fails the
// test (goodput must be 100%).
func chaosWorkload(t *testing.T, ctx context.Context, rs *ReplicaSet, n, workers int) []string {
	t.Helper()
	answers := make([]string, n)
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range next {
				answers[k], errs[k] = chaosAnswer(ctx, rs, k)
			}
		}()
	}
	for k := 0; k < n; k++ {
		next <- k
	}
	close(next)
	wg.Wait()
	for k, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", k, err)
		}
	}
	return answers
}

// TestChaosAnswersMatchFaultFreeRun is the determinism acceptance
// test: the same workload over the same facts, once on a fault-free
// replica set and once under a serving-time fault plan, must produce
// byte-identical answers. Faults move queries around; they never
// change results. The first plan (crash loop, stragglers, a ship
// stall) runs sequentially on two replicas; the second crash-loops
// one of four replicas and straggles another under hedging and a
// breaker that opens on the first failure, with eight concurrent
// clients.
func TestChaosAnswersMatchFaultFreeRun(t *testing.T) {
	cases := []struct {
		name       string
		replicas   int
		resilience ResilienceOptions
		workers    int
		queries    int
		plan       *ServeFaultPlan
	}{
		{
			name: "sequential", replicas: 2, workers: 1, queries: 30,
			plan: &ServeFaultPlan{
				Crashes: ServeCrashLoop(1, 3, 5, 2),
				Stragglers: []ServeStraggler{
					{Replica: 0, FromQuery: 2, ToQuery: 4, DelaySeconds: 0.02},
				},
				Stalls: []ShipStall{{Replica: 0, Batch: 2, DelaySeconds: 0.05}},
			},
		},
		{
			name: "hedged-concurrent", replicas: 4, workers: 8, queries: 240,
			resilience: ResilienceOptions{Hedge: true, BreakerThreshold: 1, BreakerCooldown: 5 * time.Millisecond},
			plan: &ServeFaultPlan{
				Crashes: ServeCrashLoop(1, 2, 3, 20),
				Stragglers: []ServeStraggler{
					{Replica: 0, FromQuery: 10, ToQuery: 40, DelaySeconds: 0.005},
				},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			run := func(plan *ServeFaultPlan) ([]string, ReplicaSetStats) {
				rows, meas := randomFacts(600, 997)
				base := 400
				leader := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 2})
				rs, err := leader.NewReplicaSet(ReplicaOptions{
					Replicas:    tc.replicas,
					Resilience:  tc.resilience,
					ServeFaults: plan,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer rs.Close()
				for lo := base; lo < len(rows); lo += 50 {
					if _, err := leader.Ingest(rows[lo:lo+50], meas[lo:lo+50]); err != nil {
						t.Fatal(err)
					}
				}
				ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
				defer cancel()
				if err := rs.WaitCaughtUp(ctx); err != nil {
					t.Fatal(err)
				}
				answers := chaosWorkload(t, ctx, rs, tc.queries, tc.workers)
				return answers, rs.Stats()
			}

			clean, _ := run(nil)
			chaos, st := run(tc.plan)
			for i := range clean {
				if clean[i] != chaos[i] {
					t.Fatalf("answer %d differs under chaos:\nfault-free: %s\nchaos:      %s", i, clean[i], chaos[i])
				}
			}
			// The plan must actually have fired — a vacuously green run
			// proves nothing.
			if st.Resilience.ServeCrashes == 0 {
				t.Fatalf("no injected serve crash observed: %+v", st.Resilience)
			}
			if st.Resilience.Failovers == 0 && st.Resilience.LeaderFallbacks == 0 {
				t.Fatalf("crashes fired but nothing failed over: %+v", st.Resilience)
			}
		})
	}
}

// TestLeaderFallbackWhenAllReplicasOut is the regression test for the
// last rung: with every replica retired, reads are served by the
// leader's own cube (counted in LeaderFallbacks) instead of erroring.
func TestLeaderFallbackWhenAllReplicasOut(t *testing.T) {
	rows, meas := randomFacts(400, 1009)
	leader := buildFromFacts(t, rows, meas, Options{Processors: 2})
	rs, err := leader.NewReplicaSet(ReplicaOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	var want int64
	for _, m := range meas {
		want += m
	}
	ctx := context.Background()
	if err := rs.RetireReplica(0); err != nil {
		t.Fatal(err)
	}
	if err := rs.RetireReplica(1); err != nil {
		t.Fatal(err)
	}
	got, _, err := rs.Aggregate(ctx, nil, nil)
	if err != nil {
		t.Fatalf("read with all replicas retired: %v", err)
	}
	if got != want {
		t.Fatalf("leader-fallback total %d, want %d", got, want)
	}
	st := rs.Stats()
	if st.Resilience.LeaderFallbacks != 1 {
		t.Fatalf("LeaderFallbacks = %d, want 1", st.Resilience.LeaderFallbacks)
	}
	if st.LeaderServer.Queries != 1 {
		t.Fatalf("leader fallback server served %d queries, want 1", st.LeaderServer.Queries)
	}

	// With fallback disabled the same situation is an error, not a hang.
	rs2, err := leader.NewReplicaSet(ReplicaOptions{
		Replicas:   1,
		Resilience: ResilienceOptions{DisableLeaderFallback: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs2.Close()
	if err := rs2.RetireReplica(0); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	tctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if _, _, err := rs2.Aggregate(tctx, nil, nil); err == nil {
		t.Fatal("read served with all replicas retired and fallback disabled")
	}
	if time.Since(start) > time.Second {
		t.Fatal("all-retired read blocked instead of failing fast")
	}
}

// TestServerCoalescesStampede pins single-flight: a flash crowd of
// identical queries rides one execution, consuming one queue slot —
// without coalescing the same crowd sheds almost everything.
func TestServerCoalescesStampede(t *testing.T) {
	const crowd = 8
	cube, _ := buildServedCube(t, 300, 2)

	s, err := cube.NewServer(ServerOptions{Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.sem <- struct{}{} // wedge the only worker while the crowd gathers
	var wg sync.WaitGroup
	errs := make(chan error, crowd)
	var tables [crowd]*View
	for k := 0; k < crowd; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			vw, _, err := s.GroupBy(context.Background(), []string{"month"}, nil)
			if err != nil {
				errs <- fmt.Errorf("crowd member %d: %w", k, err)
				return
			}
			tables[k] = vw
		}(k)
	}
	time.Sleep(100 * time.Millisecond) // let the crowd park: 1 in queue, rest on the flight
	<-s.sem
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for k := 1; k < crowd; k++ {
		if !record.Equal(tables[0].rows, tables[k].rows) {
			t.Fatalf("crowd member %d got different rows", k)
		}
	}
	st := s.Stats()
	if st.Rejected != 0 {
		t.Fatalf("coalesced stampede shed %d queries", st.Rejected)
	}
	if st.Queries != crowd || st.Coalesced != crowd-1 {
		t.Fatalf("stats = %+v, want %d queries / %d coalesced", st, crowd, crowd-1)
	}

	// Control: the identical stampede without single-flight floods the
	// queue and sheds (no cached entry to degrade onto).
	s2, err := cube.NewServer(ServerOptions{Workers: 1, QueueDepth: 1, NoCoalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	s2.sem <- struct{}{}
	var shed int64
	var wg2 sync.WaitGroup
	var mu sync.Mutex
	for k := 0; k < crowd; k++ {
		wg2.Add(1)
		go func() {
			defer wg2.Done()
			_, _, err := s2.GroupBy(context.Background(), []string{"month"}, nil)
			if errors.Is(err, ErrServerOverloaded) {
				mu.Lock()
				shed++
				mu.Unlock()
			}
		}()
	}
	time.Sleep(100 * time.Millisecond)
	<-s2.sem
	wg2.Wait()
	if shed < crowd-2 { // 1 executes, 1 queues, the rest must shed
		t.Fatalf("uncoalesced stampede shed only %d of %d", shed, crowd)
	}
	if got := s2.Stats().QueueFullRejects; got != shed {
		t.Fatalf("QueueFullRejects = %d, want %d", got, shed)
	}
}

// TestServerStaleServeLadder pins the overload shed ladder: an
// overloaded query is answered from the cache within StaleLimit ingest
// batches first, then (queue-full only) at any staleness, and only
// rejected when no rung applies.
func TestServerStaleServeLadder(t *testing.T) {
	rows, meas := randomFacts(700, 1013)
	base := 400
	cube := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 2})
	s, err := cube.NewServer(ServerOptions{Workers: 1, QueueDepth: -1, StaleLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Prime the cache with the grand total, then land one ingest batch:
	// the entry is now exactly 1 version stale.
	var primed int64
	for _, m := range meas[:base] {
		primed += m
	}
	if got, _, err := s.Aggregate(ctx, nil, nil); err != nil || got != primed {
		t.Fatalf("prime: %d (%v), want %d", got, err, primed)
	}
	if _, err := cube.Ingest(rows[base:base+100], meas[base:base+100]); err != nil {
		t.Fatal(err)
	}

	// Hard overload, rung 1: the 1-stale entry is within the bound.
	s.sem <- struct{}{}
	got, qm, err := s.Aggregate(ctx, nil, nil)
	if err != nil {
		t.Fatalf("overloaded query not rescued: %v", err)
	}
	if got != primed {
		t.Fatalf("stale serve returned %d, want the cached pre-batch total %d", got, primed)
	}
	if !qm.CacheHit || qm.StaleVersions != 1 {
		t.Fatalf("stale-serve metrics = %+v, want CacheHit with StaleVersions 1", qm)
	}
	if st := s.Stats(); st.StaleServes != 1 || st.Rejected != 0 {
		t.Fatalf("after rung 1: %+v", st)
	}

	// A second batch puts the entry beyond StaleLimit: hard overload
	// widens the bound (rung 2) instead of rejecting.
	<-s.sem
	if _, err := cube.Ingest(rows[base+100:base+200], meas[base+100:base+200]); err != nil {
		t.Fatal(err)
	}
	s.sem <- struct{}{}
	got, qm, err = s.Aggregate(ctx, nil, nil)
	if err != nil {
		t.Fatalf("widened rung not taken: %v", err)
	}
	if got != primed || qm.StaleVersions != 2 {
		t.Fatalf("widened serve = %d (stale %d), want %d (stale 2)", got, qm.StaleVersions, primed)
	}
	if st := s.Stats(); st.StaleWidened != 1 {
		t.Fatalf("after rung 2: %+v", st)
	}

	// A different query with no cached entry has no rung: typed
	// queue-full rejection with operational context attached.
	_, _, err = s.Aggregate(ctx, []string{"store"}, []uint32{3})
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("uncached overloaded query: err = %v, want *OverloadError", err)
	}
	if oe.Reason != OverloadQueueFull || oe.RetryAfter <= 0 {
		t.Fatalf("typed rejection = %+v", oe)
	}
	if !errors.Is(err, ErrServerOverloaded) {
		t.Fatal("typed rejection does not match ErrServerOverloaded")
	}
	if st := s.Stats(); st.QueueFullRejects != 1 || st.Rejected != 1 {
		t.Fatalf("after rejection: %+v", st)
	}
	<-s.sem
}

// TestServerQueueDeadlineTyped pins the deadline-in-queue rejection:
// typed separately from queue-full, still matching the context error,
// and refusing the widened staleness rung (a deadline caller asked for
// freshness bounds, not best-effort).
func TestServerQueueDeadlineTyped(t *testing.T) {
	rows, meas := randomFacts(800, 1019)
	base := 400
	cube := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 2})
	s, err := cube.NewServer(ServerOptions{Workers: 1, QueueDepth: 4, StaleLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Prime, then make the entry 2-stale (beyond StaleLimit).
	if _, _, err := s.Aggregate(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Ingest(rows[base:base+100], meas[base:base+100]); err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Ingest(rows[base+100:base+200], meas[base+100:base+200]); err != nil {
		t.Fatal(err)
	}

	s.sem <- struct{}{} // wedge: the query queues, then its deadline expires
	tctx, cancel := context.WithTimeout(ctx, 5*time.Millisecond)
	defer cancel()
	_, _, err = s.Aggregate(tctx, nil, nil)
	var oe *OverloadError
	if !errors.As(err, &oe) || oe.Reason != OverloadQueueDeadline {
		t.Fatalf("err = %v, want queue-deadline *OverloadError", err)
	}
	if !errors.Is(err, ErrServerOverloaded) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queue-deadline rejection must match both sentinels: %v", err)
	}
	st := s.Stats()
	if st.QueueDeadlineRejects != 1 || st.Expired != 1 || st.QueueFullRejects != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.StaleWidened != 0 {
		t.Fatal("deadline rejection took the widened rung")
	}
	<-s.sem

	// Within the limit the ladder does rescue a deadline query: make the
	// entry 1-stale and repeat.
	if _, _, err := s.Aggregate(ctx, nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cube.Ingest(rows[base+200:base+300], meas[base+200:base+300]); err != nil {
		t.Fatal(err)
	}
	s.sem <- struct{}{}
	tctx2, cancel2 := context.WithTimeout(ctx, 5*time.Millisecond)
	defer cancel2()
	if _, qm, err := s.Aggregate(tctx2, nil, nil); err != nil || qm.StaleVersions != 1 {
		t.Fatalf("deadline query within the bound: %+v err=%v, want 1-stale rescue", qm, err)
	}
	<-s.sem
}

// TestReplicaSetHedgedRequests: with one replica straggling, hedged
// reads launch on the healthy replica and win, keeping answers
// correct.
func TestReplicaSetHedgedRequests(t *testing.T) {
	rows, meas := randomFacts(500, 1021)
	leader := buildFromFacts(t, rows, meas, Options{Processors: 2})
	rs, err := leader.NewReplicaSet(ReplicaOptions{
		Replicas:   2,
		Resilience: ResilienceOptions{Hedge: true},
		ServeFaults: &ServeFaultPlan{Stragglers: []ServeStraggler{
			// Every read on replica 0 past its warmup share is slow.
			{Replica: 0, FromQuery: 12, ToQuery: 100000, DelaySeconds: 0.1},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	ctx := context.Background()

	// Mixed warmup + straggler-era reads. Distinct keys defeat both
	// caches, so every read executes; once replica 0's ordinal passes
	// 12, any read routed there stalls 100ms and the hedge (threshold
	// floored at 1ms after warmup) fires on replica 1.
	var want int64
	for _, m := range meas {
		want += m
	}
	for k := 0; k < 40; k++ {
		got, _, err := rs.RangeAggregate(ctx, []string{"store"}, []uint32{0}, []uint32{uint32(k)%38 + 1})
		if err != nil {
			t.Fatalf("read %d: %v", k, err)
		}
		if full, _, err := rs.Aggregate(ctx, nil, nil); err != nil || full != want {
			t.Fatalf("read %d: grand total %d (%v), want %d", k, full, err, want)
		}
		_ = got
	}
	st := rs.Stats()
	if st.Resilience.HedgesLaunched == 0 {
		t.Fatalf("no hedges launched against a straggling replica: %+v", st.Resilience)
	}
	if st.Resilience.HedgesWon == 0 {
		t.Fatalf("hedges launched but none won against a 100ms straggler: %+v", st.Resilience)
	}
}

// TestReplicaSetCrashLoopBreakerOpens: a crash-looping replica trips
// its breaker (each injected crash is a breaker strike), and the set
// keeps answering correctly throughout.
func TestReplicaSetCrashLoopBreakerOpens(t *testing.T) {
	rows, meas := randomFacts(500, 1031)
	leader := buildFromFacts(t, rows, meas, Options{Processors: 2})
	rs, err := leader.NewReplicaSet(ReplicaOptions{
		Replicas:    2,
		Resilience:  ResilienceOptions{BreakerThreshold: 1, BreakerCooldown: 10 * time.Second},
		ServeFaults: &ServeFaultPlan{Crashes: ServeCrashLoop(1, 1, 1, 50)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	ctx := context.Background()

	var want int64
	for _, m := range meas {
		want += m
	}
	// Distinct range keys spread affinity homes across both replicas,
	// so the crash loop on replica 1 is guaranteed routed reads.
	for k := 0; k < 30; k++ {
		got, _, err := rs.RangeAggregate(ctx, []string{"store"}, []uint32{uint32(k % 5)}, []uint32{uint32(k)%30 + 5})
		if err != nil {
			t.Fatalf("read %d: %v", k, err)
		}
		_ = got
	}
	st := rs.Stats()
	if st.Resilience.BreakerOpens == 0 {
		t.Fatalf("crash loop never opened the breaker: %+v", st.Resilience)
	}
	if st.Replicas[1].Breaker != "open" {
		t.Fatalf("crash-looping replica's breaker = %s, want open (stats %+v)", st.Replicas[1].Breaker, st.Replicas[1])
	}
	// Correctness held the whole time.
	got, _, err := rs.Aggregate(ctx, nil, nil)
	if err != nil || got != want {
		t.Fatalf("final total %d (%v), want %d", got, err, want)
	}
}
