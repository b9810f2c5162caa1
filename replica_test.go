package rolap

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/record"
)

// replicaCubes returns each live replica's underlying cube, by index.
func replicaCubes(rs *ReplicaSet) []*Cube {
	var cubes []*Cube
	for _, r := range rs.group.Stats().Replicas {
		if node, ok := r.Node.(*replicaNode); ok && node != nil {
			cubes = append(cubes, node.cube)
		} else {
			cubes = append(cubes, nil)
		}
	}
	return cubes
}

func waitReplicas(t *testing.T, rs *ReplicaSet) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rs.WaitCaughtUp(ctx); err != nil {
		t.Fatalf("WaitCaughtUp: %v", err)
	}
}

// TestReplicaSetMatchesLeader is the tier's correctness oracle: after
// the replicas catch up, every replica must hold the leader's exact
// views and per-view version counters, and reads through the replica
// set must equal reads on the leader.
func TestReplicaSetMatchesLeader(t *testing.T) {
	rows, meas := randomFacts(700, 211)
	base := 500
	leader := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 3})
	rs, err := leader.NewReplicaSet(ReplicaOptions{Replicas: 3, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	for lo := base; lo < len(rows); lo += 50 {
		if _, err := leader.Ingest(rows[lo:lo+50], meas[lo:lo+50]); err != nil {
			t.Fatal(err)
		}
	}
	waitReplicas(t, rs)

	st := rs.Stats()
	if st.LeaderSeq != 4 {
		t.Fatalf("LeaderSeq = %d, want 4", st.LeaderSeq)
	}
	if st.SnapshotSeq == 0 {
		t.Fatalf("snapshot never refreshed: %+v", st)
	}
	leaderVers := leader.engine.Topology().Versions()
	for i, rc := range replicaCubes(rs) {
		if rc == nil {
			t.Fatalf("replica %d has no node: %+v", i, st.Replicas[i])
		}
		checkCubesEqual(t, rc, leader)
		repVers := rc.engine.Topology().Versions()
		for v, ver := range leaderVers {
			if repVers[v] != ver {
				t.Fatalf("replica %d: view %v version %d, leader %d", i, v, repVers[v], ver)
			}
		}
	}

	// Reads through the set equal reads on the leader.
	ctx := context.Background()
	want, err := leader.GroupBy([]string{"month"}, map[string]uint32{"channel": 1})
	if err != nil {
		t.Fatal(err)
	}
	got, qm, err := rs.GroupBy(ctx, []string{"month"}, map[string]uint32{"channel": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !record.Equal(got.rows, want.rows) {
		t.Fatal("replica GroupBy differs from leader")
	}
	if qm.CacheHit {
		t.Fatal("first replica read reported a cache hit")
	}
	// The identical repeat routes to the same home replica (cache
	// affinity) and hits its result cache.
	_, qm2, err := rs.GroupBy(ctx, []string{"month"}, map[string]uint32{"channel": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !qm2.CacheHit {
		t.Fatal("affinity-routed repeat missed the replica's cache")
	}

	wantA, err := leader.Aggregate([]string{"store"}, []uint32{7})
	if err != nil {
		t.Fatal(err)
	}
	gotA, _, err := rs.Aggregate(ctx, []string{"store"}, []uint32{7})
	if err != nil {
		t.Fatal(err)
	}
	if gotA != wantA {
		t.Fatalf("replica aggregate %d, leader %d", gotA, wantA)
	}
	if st := rs.Stats(); st.Routed < 3 {
		t.Fatalf("routing counters not kept: %+v", st)
	}
}

// TestReplicaSetServesDuringIngest checks atomic batch visibility under
// continuous leader ingest: every grand total read through the set must
// equal the total at some committed batch boundary — never a torn
// mid-batch mixture — while the leader never stops ingesting.
func TestReplicaSetServesDuringIngest(t *testing.T) {
	rows, meas := randomFacts(600, 223)
	base := 300
	leader := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 2})
	rs, err := leader.NewReplicaSet(ReplicaOptions{Replicas: 2, MaxLag: 8, SnapshotEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	// Totals at every committed boundary (measures are non-negative, so
	// they are distinct prefix sums).
	allowed := map[int64]bool{}
	var total int64
	for _, m := range meas[:base] {
		total += m
	}
	allowed[total] = true
	boundaries := []int64{total}
	for lo := base; lo < len(rows); lo += 50 {
		for _, m := range meas[lo : lo+50] {
			total += m
		}
		allowed[total] = true
		boundaries = append(boundaries, total)
	}

	done := make(chan error, 1)
	go func() {
		for lo := base; lo < len(rows); lo += 50 {
			if _, err := leader.Ingest(rows[lo:lo+50], meas[lo:lo+50]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	ctx := context.Background()
	for reads := 0; ; reads++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			waitReplicas(t, rs)
			got, _, err := rs.Aggregate(ctx, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got != boundaries[len(boundaries)-1] {
				t.Fatalf("caught-up total %d, want %d", got, boundaries[len(boundaries)-1])
			}
			for i, rc := range replicaCubes(rs) {
				if rc == nil {
					t.Fatalf("replica %d lost its node", i)
				}
				checkCubesEqual(t, rc, leader)
			}
			return
		default:
		}
		got, _, err := rs.Aggregate(ctx, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !allowed[got] {
			t.Fatalf("read %d saw total %d — not any committed boundary %v", reads, got, boundaries)
		}
	}
}

// TestReplicaCrashCatchUpDeterministic: a seeded fault plan crashes a
// replica at an exact batch sequence; it re-bootstraps from the latest
// snapshot, replays the delta log, and converges to the leader's exact
// state — identically on every run.
func TestReplicaCrashCatchUpDeterministic(t *testing.T) {
	type outcome struct {
		stats  string
		totals []int64
	}
	run := func() outcome {
		rows, meas := randomFacts(600, 227)
		base := 400
		leader := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 2})
		rs, err := leader.NewReplicaSet(ReplicaOptions{
			Replicas:      2,
			SnapshotEvery: 3,
			Faults:        &FaultPlan{Crashes: []Crash{{Processor: 1, Superstep: 2}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		for lo := base; lo < len(rows); lo += 40 {
			if _, err := leader.Ingest(rows[lo:lo+40], meas[lo:lo+40]); err != nil {
				t.Fatal(err)
			}
		}
		waitReplicas(t, rs)

		st := rs.Stats()
		var o outcome
		for i, r := range st.Replicas {
			o.stats += fmt.Sprintf("%d:%s applied=%d boot=%d crash=%d;", i, r.State, r.Applied, r.Bootstraps, r.Crashes)
		}
		for _, rc := range replicaCubes(rs) {
			checkCubesEqual(t, rc, leader)
			tot, err := rc.Aggregate(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			o.totals = append(o.totals, tot)
		}
		return o
	}
	a, b := run(), run()
	if a.stats != b.stats {
		t.Fatalf("replica outcomes differ across identical runs:\n%s\n%s", a.stats, b.stats)
	}
	want := "0:live applied=5 boot=1 crash=0;1:live applied=5 boot=2 crash=1;"
	if a.stats != want {
		t.Fatalf("crash/catch-up outcome = %q, want %q", a.stats, want)
	}
	for i := range a.totals {
		if a.totals[i] != b.totals[i] {
			t.Fatalf("replica %d totals differ across runs: %d vs %d", i, a.totals[i], b.totals[i])
		}
	}
}

// TestReplicaSetLifecycleAndValidation covers option validation, manual
// crash recovery, and detaching from the leader.
func TestReplicaSetLifecycleAndValidation(t *testing.T) {
	rows, meas := randomFacts(400, 229)
	leader := buildFromFacts(t, rows[:300], meas[:300], Options{Processors: 2})
	if _, err := leader.NewReplicaSet(ReplicaOptions{Replicas: -1}); err == nil {
		t.Fatal("negative replica count accepted")
	}
	if _, err := leader.NewReplicaSet(ReplicaOptions{
		Replicas: 2,
		Faults:   &FaultPlan{Crashes: []Crash{{Processor: 7, Superstep: 1}}},
	}); err == nil {
		t.Fatal("fault plan addressing replica 7 of 2 accepted")
	}

	rs, err := leader.NewReplicaSet(ReplicaOptions{Replicas: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.CrashReplica(5); err == nil {
		t.Fatal("out-of-range crash index accepted")
	}
	// Manual crash: the replica re-bootstraps and reconverges.
	if err := rs.CrashReplica(0); err != nil {
		t.Fatal(err)
	}
	if _, err := leader.Ingest(rows[300:], meas[300:]); err != nil {
		t.Fatal(err)
	}
	waitReplicas(t, rs)
	st := rs.Stats()
	if st.Replicas[0].Crashes != 1 || st.Replicas[0].Bootstraps != 2 || st.Replicas[0].State != "live" {
		t.Fatalf("after manual crash: %+v", st.Replicas[0])
	}
	for _, rc := range replicaCubes(rs) {
		checkCubesEqual(t, rc, leader)
	}

	// Close detaches the commit stream; the leader keeps ingesting.
	rs.Close()
	rs.Close() // idempotent
	if _, err := leader.Ingest(rows[:10], meas[:10]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, _, err := rs.Aggregate(ctx, nil, nil); err == nil {
		t.Fatal("read served after Close")
	}
}
