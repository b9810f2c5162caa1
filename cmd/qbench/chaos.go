// Resilience scenarios: -chaos serves a deterministic workload
// through a replica set while an injected fault plan crash-loops one
// replica, straggles another, and stalls delta shipping, reporting
// goodput (correct answers per issued query) and wall-clock latency
// percentiles; -flashcrowd stampedes a Zipf hot-key mix against a
// single server and compares the coalescing + stale-serve ladder with
// a control that has both disabled. Both scenarios append to the same
// JSON report (-out), the BENCH_PR7.json artifact.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rolap "repro"
	"repro/internal/gen"
)

// execOp runs one workload query and encodes its answer canonically,
// so answers from different serving tiers compare byte-for-byte.
func execOp(ctx context.Context, s rolap.Querier, q rolap.Query) (string, error) {
	vw, _, err := s.Do(ctx, q)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for i := 0; i < vw.Len(); i++ {
		key, m := vw.Row(i)
		fmt.Fprintf(&sb, "(%v:%d)", key, m)
	}
	return sb.String(), nil
}

// chaosReport is the -chaos section of the JSON report.
type chaosReport struct {
	Replicas      int    `json:"replicas"`
	CrashReplica  int    `json:"crash_replica"`
	CrashEvery    uint64 `json:"crash_every_reads"`
	Crashes       int    `json:"crashes_planned"`
	IngestBatches int    `json:"ingest_batches"`
	Verified      bool   `json:"answers_verified"`

	Issued       int64   `json:"issued"`
	Succeeded    int64   `json:"succeeded"`
	Failed       int64   `json:"failed"`
	WrongAnswers int64   `json:"wrong_answers"`
	GoodputPct   float64 `json:"goodput_pct"`
	P50Ms        float64 `json:"p50_wall_ms"`
	P95Ms        float64 `json:"p95_wall_ms"`
	P99Ms        float64 `json:"p99_wall_ms"`

	ServeCrashes    int64 `json:"serve_crashes_fired"`
	Retries         int64 `json:"retries"`
	Failovers       int64 `json:"failovers"`
	LeaderFallbacks int64 `json:"leader_fallbacks"`
	HedgesLaunched  int64 `json:"hedges_launched"`
	HedgesWon       int64 `json:"hedges_won"`
	BreakerOpens    int64 `json:"breaker_opens"`
	Bootstraps      int64 `json:"replica_bootstraps"`
}

// flashPoint is one arm of the -flashcrowd comparison.
type flashPoint struct {
	Served           int64   `json:"served"`
	Rejected         int64   `json:"rejected"`
	Expired          int64   `json:"expired"`
	Coalesced        int64   `json:"coalesced"`
	StaleServes      int64   `json:"stale_serves"`
	StaleWidened     int64   `json:"stale_widened"`
	QueueFullRejects int64   `json:"queue_full_rejects"`
	CacheHitPct      float64 `json:"cache_hit_pct"`
	P50Ms            float64 `json:"p50_wall_ms"`
	P95Ms            float64 `json:"p95_wall_ms"`
	P99Ms            float64 `json:"p99_wall_ms"`
}

// flashReport is the -flashcrowd section of the JSON report.
type flashReport struct {
	HotKeys       int        `json:"hot_keys"`
	Alpha         float64    `json:"alpha"`
	Clients       int        `json:"clients"`
	IngestBatches int        `json:"ingest_batches"`
	Resilient     flashPoint `json:"resilient"`
	Control       flashPoint `json:"control_no_coalesce_no_stale"`
}

// resilienceReport is the BENCH_PR7.json payload.
type resilienceReport struct {
	Bench       string       `json:"bench"`
	Rows        int          `json:"rows"`
	LeaderProcs int          `json:"leader_procs"`
	Queries     int          `json:"queries"`
	Workers     int          `json:"workers"`
	Seed        int64        `json:"seed"`
	Chaos       *chaosReport `json:"chaos,omitempty"`
	Flashcrowd  *flashReport `json:"flashcrowd,omitempty"`
}

// runResilience dispatches the -chaos and/or -flashcrowd scenarios and
// writes the combined JSON report.
func runResilience(cfg config, w io.Writer) error {
	rep := resilienceReport{
		Bench: "resilience", Rows: cfg.rows, LeaderProcs: cfg.leaderP,
		Queries: cfg.queries, Workers: cfg.workers, Seed: cfg.seed,
	}
	if cfg.chaos {
		c, err := runChaos(cfg, w)
		if err != nil {
			return err
		}
		rep.Chaos = &c
	}
	if cfg.flashcrowd {
		f, err := runFlashcrowd(cfg, w)
		if err != nil {
			return err
		}
		rep.Flashcrowd = &f
	}
	if cfg.out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", cfg.out)
	}
	return nil
}

// runChaos serves the standard workload through a replica set whose
// fault plan crash-loops one replica, straggles another, and (when
// ingesting) stalls a delta batch. Failover, hedging, breakers, and
// the leader fallback must mask all of it: with -verify every answer
// is checked against the leader's, and any wrong or failed query is a
// nonzero exit.
func runChaos(cfg config, w io.Writer) (chaosReport, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	workload := makeWorkload(cfg, rng)
	n := cfg.chaosReplicas
	if n < 1 {
		n = 1
	}
	ingBatches := cfg.ingBatches
	if cfg.verify {
		ingBatches = 0 // answers must be version-independent to compare
	}

	in, err := buildInput(cfg)
	if err != nil {
		return chaosReport{}, err
	}
	leader, err := rolap.Build(in, rolap.Options{Processors: cfg.leaderP})
	if err != nil {
		return chaosReport{}, fmt.Errorf("qbench: build leader: %w", err)
	}

	// Precompute the expected answer transcript on the leader's own
	// cube before any ingest or faults.
	var expected []string
	if ingBatches == 0 {
		oracle, err := leader.NewServer(rolap.ServerOptions{Workers: 1, QueueDepth: len(workload) + 1, CacheSize: cfg.cache})
		if err != nil {
			return chaosReport{}, err
		}
		for _, o := range workload {
			ans, err := execOp(context.Background(), oracle, o)
			if err != nil {
				return chaosReport{}, fmt.Errorf("qbench: oracle query: %w", err)
			}
			expected = append(expected, ans)
		}
	}

	crashReplica := 1 % n
	const crashFirst, crashEvery = 2, 3
	nCrash := cfg.queries / 12
	if nCrash < 3 {
		nCrash = 3
	}
	plan := &rolap.ServeFaultPlan{
		Crashes: rolap.ServeCrashLoop(crashReplica, crashFirst, crashEvery, nCrash),
		Stragglers: []rolap.ServeStraggler{
			{Replica: 0, FromQuery: 10, ToQuery: 10 + uint64(cfg.queries/8), DelaySeconds: 0.005},
		},
	}
	if ingBatches > 0 {
		plan.Stalls = []rolap.ShipStall{{Replica: 0, Batch: 2, DelaySeconds: 0.05}}
	}

	rs, err := leader.NewReplicaSet(rolap.ReplicaOptions{
		Replicas:      n,
		MaxLag:        cfg.maxLag,
		SnapshotEvery: cfg.snapEvery,
		Server: rolap.ServerOptions{
			Workers: cfg.workers, QueueDepth: cfg.queue, CacheSize: cfg.cache,
		},
		Resilience: rolap.ResilienceOptions{
			Hedge:            true,
			BreakerThreshold: 1,
			BreakerCooldown:  5 * time.Millisecond,
		},
		ServeFaults: plan,
	})
	if err != nil {
		return chaosReport{}, err
	}
	defer rs.Close()

	ingDone := make(chan error, 1)
	if ingBatches > 0 {
		batches, batchMeas := makeIngestStream(cfg)
		go func() {
			for b := 0; b < ingBatches; b++ {
				if _, err := leader.Ingest(batches[b], batchMeas[b]); err != nil {
					ingDone <- err
					return
				}
			}
			ingDone <- nil
		}()
	} else {
		ingDone <- nil
	}

	var ok, failed, wrong int64
	var mu sync.Mutex
	var lat []float64
	jobs := make(chan int)
	var wg sync.WaitGroup
	for i := 0; i < cfg.workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := range jobs {
				start := time.Now()
				ans, err := execOp(context.Background(), rs, workload[qi])
				wall := time.Since(start)
				if err != nil {
					atomic.AddInt64(&failed, 1)
					continue
				}
				if expected != nil && ans != expected[qi] {
					atomic.AddInt64(&wrong, 1)
					continue
				}
				atomic.AddInt64(&ok, 1)
				mu.Lock()
				lat = append(lat, wall.Seconds())
				mu.Unlock()
			}
		}()
	}
	for qi := range workload {
		jobs <- qi
	}
	close(jobs)
	wg.Wait()
	if err := <-ingDone; err != nil {
		return chaosReport{}, fmt.Errorf("qbench: concurrent ingest: %w", err)
	}

	st := rs.Stats()
	sort.Float64s(lat)
	rep := chaosReport{
		Replicas: n, CrashReplica: crashReplica, CrashEvery: crashEvery,
		Crashes: nCrash, IngestBatches: ingBatches, Verified: expected != nil,
		Issued: int64(len(workload)), Succeeded: ok, Failed: failed, WrongAnswers: wrong,
		P50Ms: 1e3 * percentile(lat, 0.50),
		P95Ms: 1e3 * percentile(lat, 0.95),
		P99Ms: 1e3 * percentile(lat, 0.99),

		ServeCrashes:    st.Resilience.ServeCrashes,
		Retries:         st.Resilience.Retries,
		Failovers:       st.Resilience.Failovers,
		LeaderFallbacks: st.Resilience.LeaderFallbacks,
		HedgesLaunched:  st.Resilience.HedgesLaunched,
		HedgesWon:       st.Resilience.HedgesWon,
		BreakerOpens:    st.Resilience.BreakerOpens,
	}
	for _, r := range st.Replicas {
		rep.Bootstraps += r.Bootstraps
	}
	if rep.Issued > 0 {
		rep.GoodputPct = 100 * float64(ok) / float64(rep.Issued)
	}

	fmt.Fprintf(w, "qbench chaos: %d rows, %d replicas (replica %d crash-loops every %d reads x%d), %d queries, %d ingest batches\n",
		cfg.rows, n, crashReplica, crashEvery, nCrash, cfg.queries, ingBatches)
	fmt.Fprintf(w, "%8s %8s %8s %8s %9s %10s %10s %10s %8s %8s %9s %9s %7s %8s %6s\n",
		"issued", "ok", "failed", "wrong", "goodput", "p50_ms", "p95_ms", "p99_ms",
		"crashes", "retries", "failovers", "leader_fb", "hedges", "br_open", "boots")
	fmt.Fprintf(w, "%8d %8d %8d %8d %8.1f%% %10.3f %10.3f %10.3f %8d %8d %9d %9d %7d %8d %6d\n",
		rep.Issued, rep.Succeeded, rep.Failed, rep.WrongAnswers, rep.GoodputPct,
		rep.P50Ms, rep.P95Ms, rep.P99Ms,
		rep.ServeCrashes, rep.Retries, rep.Failovers, rep.LeaderFallbacks,
		rep.HedgesLaunched, rep.BreakerOpens, rep.Bootstraps)

	if cfg.verify {
		switch {
		case wrong > 0:
			return rep, fmt.Errorf("qbench: VERIFY FAILED: %d wrong answers under chaos", wrong)
		case failed > 0:
			return rep, fmt.Errorf("qbench: VERIFY FAILED: %d queries failed under chaos", failed)
		case rep.ServeCrashes == 0:
			return rep, fmt.Errorf("qbench: VERIFY VACUOUS: no injected crash fired (plan mistargeted?)")
		}
		fmt.Fprintf(w, "verify: all %d answers match the leader under chaos (%d crashes masked)\n",
			rep.Succeeded, rep.ServeCrashes)
	}
	return rep, nil
}

// runFlashcrowd stampedes a Zipf hot-key query mix against one server
// while the leader ingests (each batch bumps the cache version, so the
// crowd re-misses together). The resilient arm runs the default
// coalescing + stale-serve ladder; the control arm disables both.
func runFlashcrowd(cfg config, w io.Writer) (flashReport, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	dims := benchSchema().Dimensions
	keys := cfg.hotKeys
	if keys < 1 {
		keys = 1
	}
	pool := make([]rolap.Query, keys)
	for i := range pool {
		pool[i] = randomOp(rng, dims)
	}
	mix := gen.NewQueryMix(keys, cfg.alpha, cfg.seed)
	stream := make([]int, cfg.queries)
	for i := range stream {
		stream[i] = mix.Key(i)
	}
	clients := cfg.clients
	if clients <= 0 {
		clients = 6 * cfg.workers
	}

	rep := flashReport{HotKeys: keys, Alpha: cfg.alpha, Clients: clients, IngestBatches: cfg.ingBatches}
	run := func(control bool) (flashPoint, error) {
		in, err := buildInput(cfg)
		if err != nil {
			return flashPoint{}, err
		}
		cube, err := rolap.Build(in, rolap.Options{Processors: cfg.leaderP})
		if err != nil {
			return flashPoint{}, fmt.Errorf("qbench: build: %w", err)
		}
		opts := rolap.ServerOptions{Workers: cfg.workers, QueueDepth: cfg.queue, CacheSize: cfg.cache}
		if control {
			opts.NoCoalesce = true
			opts.StaleLimit = -1
		}
		srv, err := cube.NewServer(opts)
		if err != nil {
			return flashPoint{}, err
		}

		// The ingest goroutine bumps the cache version mid-stream, so
		// the hot keys stampede on every batch boundary.
		batches, batchMeas := makeIngestStream(cfg)
		ingDone := make(chan error, 1)
		go func() {
			for b := range batches {
				time.Sleep(10 * time.Millisecond)
				if _, err := cube.Ingest(batches[b], batchMeas[b]); err != nil {
					ingDone <- err
					return
				}
			}
			ingDone <- nil
		}()

		var mu sync.Mutex
		var lat []float64
		jobs := make(chan int)
		var wg sync.WaitGroup
		for i := 0; i < clients; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for qi := range jobs {
					start := time.Now()
					_, err := execOp(context.Background(), srv, pool[qi])
					wall := time.Since(start)
					if err != nil {
						continue // shed; counted by the server
					}
					mu.Lock()
					lat = append(lat, wall.Seconds())
					mu.Unlock()
				}
			}()
		}
		for _, qi := range stream {
			jobs <- qi
		}
		close(jobs)
		wg.Wait()
		if err := <-ingDone; err != nil {
			return flashPoint{}, fmt.Errorf("qbench: concurrent ingest: %w", err)
		}

		st := srv.Stats()
		sort.Float64s(lat)
		pt := flashPoint{
			Served: st.Queries, Rejected: st.Rejected, Expired: st.Expired,
			Coalesced: st.Coalesced, StaleServes: st.StaleServes, StaleWidened: st.StaleWidened,
			QueueFullRejects: st.QueueFullRejects,
			P50Ms:            1e3 * percentile(lat, 0.50),
			P95Ms:            1e3 * percentile(lat, 0.95),
			P99Ms:            1e3 * percentile(lat, 0.99),
		}
		if st.Queries > 0 {
			pt.CacheHitPct = 100 * float64(st.CacheHits) / float64(st.Queries)
		}
		return pt, nil
	}

	var err error
	if rep.Resilient, err = run(false); err != nil {
		return rep, err
	}
	if rep.Control, err = run(true); err != nil {
		return rep, err
	}

	fmt.Fprintf(w, "qbench flashcrowd: %d rows, %d queries over %d hot keys (alpha %.2f), %d clients vs %d workers, %d ingest batches\n",
		cfg.rows, cfg.queries, keys, cfg.alpha, clients, cfg.workers, cfg.ingBatches)
	fmt.Fprintf(w, "%-10s %8s %8s %9s %8s %8s %10s %10s %10s %7s\n",
		"mode", "served", "shed", "coalesce", "stale", "widened", "p50_ms", "p95_ms", "p99_ms", "hit%")
	for _, row := range []struct {
		name string
		pt   flashPoint
	}{{"resilient", rep.Resilient}, {"control", rep.Control}} {
		fmt.Fprintf(w, "%-10s %8d %8d %9d %8d %8d %10.3f %10.3f %10.3f %6.1f%%\n",
			row.name, row.pt.Served, row.pt.Rejected+row.pt.Expired, row.pt.Coalesced,
			row.pt.StaleServes, row.pt.StaleWidened, row.pt.P50Ms, row.pt.P95Ms, row.pt.P99Ms, row.pt.CacheHitPct)
	}
	return rep, nil
}
