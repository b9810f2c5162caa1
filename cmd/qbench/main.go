// Command qbench drives a synthetic query workload against the
// distributed serving subsystem and reports simulated throughput and
// latency as the machine size grows.
//
// For each processor count in the sweep it builds the same cube,
// starts a query server, and pushes a deterministic mixed workload
// (group-bys with random filters, point and range aggregates, with
// half the stream drawn from a hot pool so the result cache matters)
// through a bounded worker pool. The table reports simulated seconds,
// queries per simulated second, latency percentiles, cache hit ratio,
// rows scanned, and how many queries were answered from the prefix
// index.
//
// With -replicas the sweep is over replica counts instead: one ingest
// leader feeds N read replicas by snapshot/delta shipping while the
// replica set serves the workload, reporting fleet read throughput
// (served queries per simulated second of the busiest replica) and
// latency percentiles per replica count, optionally as JSON (-out).
//
//	qbench -rows 60000 -p 1,2,4,8 -queries 400 -workers 8
//	qbench -rows 40000 -replicas 1,2,4 -queries 600 -out BENCH_PR6.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	rolap "repro"
)

type config struct {
	rows    int
	procs   []int
	queries int
	workers int
	queue   int
	cache   int
	seed    int64

	// Replica-sweep mode (non-empty replicas switches modes).
	replicas   []int
	leaderP    int
	maxLag     uint64
	snapEvery  int
	ingBatches int
	ingRows    int
	out        string

	// Resilience modes (-chaos and/or -flashcrowd).
	chaos         bool
	flashcrowd    bool
	verify        bool
	chaosReplicas int
	alpha         float64
	hotKeys       int
	clients       int

	// Advisor mode (-advisor): adaptive partial cube vs static arms.
	advisor   bool
	smoke     bool
	stepEvery int
}

func main() {
	rows := flag.Int("rows", 20000, "fact rows to generate")
	procsFlag := flag.String("p", "1,2,4,8", "comma-separated processor counts to sweep")
	queries := flag.Int("queries", 200, "queries per processor count")
	workers := flag.Int("workers", 8, "server worker pool size")
	queue := flag.Int("queue", 0, "server queue depth (0 = default)")
	cache := flag.Int("cache", 256, "result cache entries (negative disables)")
	seed := flag.Int64("seed", 42, "workload seed")
	replicasFlag := flag.String("replicas", "", "comma-separated replica counts: sweep the replicated serving tier instead of machine sizes")
	leaderP := flag.Int("leaderp", 4, "leader machine size in replica mode")
	maxLag := flag.Uint64("maxlag", 4, "replica staleness bound in batches")
	snapEvery := flag.Int("snapevery", 4, "refresh the bootstrap snapshot every N batches")
	ingBatches := flag.Int("ingest-batches", 8, "leader batches ingested while replicas serve")
	ingRows := flag.Int("ingest-rows", 250, "rows per concurrent ingest batch")
	out := flag.String("out", "", "write the replica-sweep report as JSON to this file")
	chaos := flag.Bool("chaos", false, "run the chaos scenario: replicas serving under an injected crash loop, stragglers, and ship stalls")
	flashcrowd := flag.Bool("flashcrowd", false, "run the flash-crowd scenario: a Zipf hot-key stampede against one server, coalescing+stale-serve vs a control")
	verify := flag.Bool("verify", false, "with -chaos: disable concurrent ingest and check every answer against the leader, exiting nonzero on any mismatch")
	chaosReplicas := flag.Int("chaos-replicas", 4, "replica count for -chaos (one of them crash-loops)")
	alpha := flag.Float64("alpha", 1.2, "Zipf skew of the -flashcrowd hot-key mix")
	hotKeys := flag.Int("hotkeys", 48, "distinct queries in the -flashcrowd key space")
	clients := flag.Int("clients", 0, "concurrent -flashcrowd clients (0 = 6x workers)")
	advisor := flag.Bool("advisor", false, "run the advisor scenario: adaptive partial cube under a Zipf query mix vs full-cube and static-minimal arms")
	smoke := flag.Bool("smoke", false, "with -advisor: exit nonzero unless the advisor arm strictly improves p50 over static-minimal and every answer matches the full cube")
	stepEvery := flag.Int("advise-every", 40, "advisor steps every N queries")
	sketchFlag := flag.Bool("sketch", false, "sketch accuracy experiment: distinct/quantile estimates vs the exact gather oracle across cardinalities and ranks, plus build-cost overhead")
	flag.Parse()

	cfg := config{rows: *rows, queries: *queries, workers: *workers,
		queue: *queue, cache: *cache, seed: *seed,
		leaderP: *leaderP, maxLag: *maxLag, snapEvery: *snapEvery,
		ingBatches: *ingBatches, ingRows: *ingRows, out: *out,
		chaos: *chaos, flashcrowd: *flashcrowd, verify: *verify,
		chaosReplicas: *chaosReplicas, alpha: *alpha, hotKeys: *hotKeys, clients: *clients,
		advisor: *advisor, smoke: *smoke, stepEvery: *stepEvery}
	parseCounts := func(s, what string) []int {
		var counts []int
		for _, f := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n < 1 {
				fmt.Fprintf(os.Stderr, "qbench: bad %s count %q\n", what, f)
				os.Exit(1)
			}
			counts = append(counts, n)
		}
		return counts
	}
	cfg.procs = parseCounts(*procsFlag, "processor")
	if *sketchFlag {
		if err := runSketch(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if cfg.advisor {
		if err := runAdvisor(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if cfg.chaos || cfg.flashcrowd {
		if err := runResilience(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if *replicasFlag != "" {
		cfg.replicas = parseCounts(*replicasFlag, "replica")
		if err := runReplicas(cfg, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}
	if err := run(cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// benchSchema is the fixed workload schema: six dimensions with
// paper-style decreasing cardinalities.
func benchSchema() rolap.Schema {
	return rolap.Schema{Dimensions: []rolap.Dimension{
		{Name: "store", Cardinality: 32},
		{Name: "product", Cardinality: 16},
		{Name: "month", Cardinality: 12},
		{Name: "region", Cardinality: 8},
		{Name: "channel", Cardinality: 4},
		{Name: "promo", Cardinality: 3},
	}}
}

// randomOp draws one workload query, replayable across machine sizes
// so every sweep point serves the identical stream: a range aggregate
// 25% of the time, otherwise a group-by with random filters.
func randomOp(rng *rand.Rand, dims []rolap.Dimension) rolap.Query {
	var q rolap.Query
	if rng.Intn(4) == 0 { // 25% range aggregates
		n := 1 + rng.Intn(2)
		for _, u := range rng.Perm(len(dims))[:n] {
			a := uint32(rng.Intn(dims[u].Cardinality))
			b := uint32(rng.Intn(dims[u].Cardinality))
			if a > b {
				a, b = b, a
			}
			q.Bounds = append(q.Bounds, rolap.Bound{Dim: dims[u].Name, Lo: a, Hi: b})
		}
		return q
	}
	perm := rng.Perm(len(dims))
	ng := 1 + rng.Intn(2)
	for _, u := range perm[:ng] {
		q.Group = append(q.Group, dims[u].Name)
	}
	nf := rng.Intn(3)
	for _, u := range perm[ng : ng+nf] {
		v := uint32(rng.Intn(dims[u].Cardinality))
		q.Bounds = append(q.Bounds, rolap.Bound{Dim: dims[u].Name, Lo: v, Hi: v})
	}
	return q
}

// makeWorkload builds a deterministic query stream: a hot pool of
// distinct queries plus a 50% repeat rate, so the cache sees realistic
// reuse.
func makeWorkload(cfg config, rng *rand.Rand) []rolap.Query {
	dims := benchSchema().Dimensions
	pool := make([]rolap.Query, 1+cfg.queries/8)
	for i := range pool {
		pool[i] = randomOp(rng, dims)
	}
	out := make([]rolap.Query, cfg.queries)
	for i := range out {
		if rng.Intn(2) == 0 {
			out[i] = pool[rng.Intn(len(pool))]
		} else {
			out[i] = randomOp(rng, dims)
		}
	}
	return out
}

type sweepResult struct {
	p          int
	served     int64
	rejected   int64
	simSeconds float64
	p50, p95   float64
	p99        float64
	hits       int64
	rows       int64
	indexed    int64
}

// buildInput generates the deterministic fact table (same facts for
// every sweep point).
func buildInput(cfg config) (*rolap.Input, error) {
	in, err := rolap.NewInput(benchSchema())
	if err != nil {
		return nil, err
	}
	gen := rand.New(rand.NewSource(cfg.seed + 1))
	dims := benchSchema().Dimensions
	row := make([]uint32, len(dims))
	for i := 0; i < cfg.rows; i++ {
		for j, d := range dims {
			row[j] = uint32(gen.Intn(d.Cardinality))
		}
		if err := in.AddRow(row, int64(gen.Intn(500))); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// makeIngestStream pre-generates the batches the leader ingests while
// the replicas serve, identical for every sweep point.
func makeIngestStream(cfg config) ([][][]uint32, [][]int64) {
	gen := rand.New(rand.NewSource(cfg.seed + 2))
	dims := benchSchema().Dimensions
	batches := make([][][]uint32, cfg.ingBatches)
	meas := make([][]int64, cfg.ingBatches)
	for b := range batches {
		rows := make([][]uint32, cfg.ingRows)
		ms := make([]int64, cfg.ingRows)
		for i := range rows {
			row := make([]uint32, len(dims))
			for j, d := range dims {
				row[j] = uint32(gen.Intn(d.Cardinality))
			}
			rows[i] = row
			ms[i] = int64(gen.Intn(500))
		}
		batches[b] = rows
		meas[b] = ms
	}
	return batches, meas
}

func run(cfg config, w io.Writer) error {
	rng := rand.New(rand.NewSource(cfg.seed))

	workload := makeWorkload(cfg, rng)

	var results []sweepResult
	for _, p := range cfg.procs {
		in, err := buildInput(cfg)
		if err != nil {
			return err
		}
		cube, err := rolap.Build(in, rolap.Options{Processors: p})
		if err != nil {
			return fmt.Errorf("qbench: build at p=%d: %w", p, err)
		}
		srv, err := cube.NewServer(rolap.ServerOptions{
			Workers:    cfg.workers,
			QueueDepth: cfg.queue,
			CacheSize:  cfg.cache,
		})
		if err != nil {
			return err
		}

		res := sweepResult{p: p}
		var mu sync.Mutex
		var lat []float64
		var indexed int64

		jobs := make(chan rolap.Query)
		var wg sync.WaitGroup
		for i := 0; i < cfg.workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for o := range jobs {
					_, qm, err := srv.Do(context.Background(), o)
					if err != nil {
						continue // rejected or expired; counted by the server
					}
					mu.Lock()
					lat = append(lat, qm.SimSeconds)
					if qm.IndexUsed {
						indexed++
					}
					mu.Unlock()
				}
			}()
		}
		for _, o := range workload {
			jobs <- o
		}
		close(jobs)
		wg.Wait()

		st := srv.Stats()
		sort.Float64s(lat)
		res.served = st.Queries
		res.rejected = st.Rejected
		res.simSeconds = st.SimSeconds
		res.hits = st.CacheHits
		res.rows = st.RowsScanned
		res.indexed = indexed
		res.p50 = percentile(lat, 0.50)
		res.p95 = percentile(lat, 0.95)
		res.p99 = percentile(lat, 0.99)
		results = append(results, res)
	}

	fmt.Fprintf(w, "qbench: %d rows, %d queries/point, %d workers, cache %d\n",
		cfg.rows, cfg.queries, cfg.workers, cfg.cache)
	fmt.Fprintf(w, "%4s %8s %8s %10s %10s %10s %10s %10s %7s %12s %8s\n",
		"p", "served", "rejected", "sim_s", "q/sim_s", "p50_ms", "p95_ms", "p99_ms", "hit%", "rows_scan", "indexed")
	var base float64
	for i, r := range results {
		tput := 0.0
		if r.simSeconds > 0 {
			tput = float64(r.served-r.hits) / r.simSeconds
		}
		if i == 0 {
			base = tput
		}
		speedup := ""
		if base > 0 {
			speedup = fmt.Sprintf(" (%.2fx)", tput/base)
		}
		hitPct := 0.0
		if r.served > 0 {
			hitPct = 100 * float64(r.hits) / float64(r.served)
		}
		fmt.Fprintf(w, "%4d %8d %8d %10.3f %10.1f %10.3f %10.3f %10.3f %6.1f%% %12d %8d%s\n",
			r.p, r.served, r.rejected, r.simSeconds, tput,
			1e3*r.p50, 1e3*r.p95, 1e3*r.p99, hitPct, r.rows, r.indexed, speedup)
	}
	return nil
}

// replicaPoint is one replica-count sweep point of the JSON report.
type replicaPoint struct {
	Replicas        int     `json:"replicas"`
	Served          int64   `json:"served"`
	FleetSimSeconds float64 `json:"fleet_sim_seconds"`
	Throughput      float64 `json:"queries_per_sim_second"`
	Speedup         float64 `json:"speedup_vs_single"`
	P50Ms           float64 `json:"p50_ms"`
	P95Ms           float64 `json:"p95_ms"`
	P99Ms           float64 `json:"p99_ms"`
	CacheHitPct     float64 `json:"cache_hit_pct"`
	StalenessWaits  int64   `json:"staleness_waits"`
	LeaderSeq       uint64  `json:"leader_batches_committed"`
	IngestedRows    int64   `json:"leader_rows_ingested"`
	Bootstraps      int64   `json:"replica_bootstraps"`
}

// replicaReport is the BENCH_PR6.json payload.
type replicaReport struct {
	Bench         string         `json:"bench"`
	Rows          int            `json:"rows"`
	LeaderProcs   int            `json:"leader_procs"`
	Queries       int            `json:"queries"`
	Workers       int            `json:"workers"`
	Cache         int            `json:"cache"`
	MaxLag        uint64         `json:"max_lag_batches"`
	SnapshotEvery int            `json:"snapshot_every"`
	IngestBatches int            `json:"ingest_batches"`
	IngestRows    int            `json:"ingest_rows_per_batch"`
	Seed          int64          `json:"seed"`
	Sweep         []replicaPoint `json:"sweep"`
}

// runReplicas sweeps the replicated serving tier over replica counts:
// the same leader cube, the same query workload, and the same
// concurrent leader ingest stream at every point, so throughput scaling
// is attributable to the replica fan-out alone. Fleet throughput is
// served queries per simulated second of the busiest replica — the
// replicas are independent simulated machines serving in parallel, so
// the busiest one is the fleet's makespan.
func runReplicas(cfg config, w io.Writer) error {
	rng := rand.New(rand.NewSource(cfg.seed))
	workload := makeWorkload(cfg, rng)
	batches, batchMeas := makeIngestStream(cfg)

	rep := replicaReport{
		Bench:         "replica-sweep",
		Rows:          cfg.rows,
		LeaderProcs:   cfg.leaderP,
		Queries:       cfg.queries,
		Workers:       cfg.workers,
		Cache:         cfg.cache,
		MaxLag:        cfg.maxLag,
		SnapshotEvery: cfg.snapEvery,
		IngestBatches: cfg.ingBatches,
		IngestRows:    cfg.ingRows,
		Seed:          cfg.seed,
	}

	for _, n := range cfg.replicas {
		in, err := buildInput(cfg)
		if err != nil {
			return err
		}
		leader, err := rolap.Build(in, rolap.Options{Processors: cfg.leaderP})
		if err != nil {
			return fmt.Errorf("qbench: build leader: %w", err)
		}
		rs, err := leader.NewReplicaSet(rolap.ReplicaOptions{
			Replicas:      n,
			MaxLag:        cfg.maxLag,
			SnapshotEvery: cfg.snapEvery,
			Server: rolap.ServerOptions{
				Workers:    cfg.workers,
				QueueDepth: cfg.queue,
				CacheSize:  cfg.cache,
			},
		})
		if err != nil {
			return err
		}

		// The leader ingests continuously while the replicas serve.
		ingDone := make(chan error, 1)
		go func() {
			for b := range batches {
				if _, err := leader.Ingest(batches[b], batchMeas[b]); err != nil {
					ingDone <- err
					return
				}
			}
			ingDone <- nil
		}()

		var mu sync.Mutex
		var lat []float64
		jobs := make(chan rolap.Query)
		var wg sync.WaitGroup
		for i := 0; i < cfg.workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for o := range jobs {
					_, qm, err := rs.Do(context.Background(), o)
					if err != nil {
						continue
					}
					mu.Lock()
					lat = append(lat, qm.SimSeconds)
					mu.Unlock()
				}
			}()
		}
		for _, o := range workload {
			jobs <- o
		}
		close(jobs)
		wg.Wait()
		if err := <-ingDone; err != nil {
			return fmt.Errorf("qbench: concurrent ingest: %w", err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err = rs.WaitCaughtUp(ctx)
		cancel()
		if err != nil {
			return fmt.Errorf("qbench: replicas never caught up: %w", err)
		}

		st := rs.Stats()
		pt := replicaPoint{
			Replicas:       n,
			StalenessWaits: st.StalenessWaits,
			LeaderSeq:      st.LeaderSeq,
			IngestedRows:   leader.Metrics().IngestedRows,
		}
		var hits int64
		for _, r := range st.Replicas {
			pt.Served += r.Server.Queries
			hits += r.Server.CacheHits
			pt.Bootstraps += r.Bootstraps
			if r.Server.SimSeconds > pt.FleetSimSeconds {
				pt.FleetSimSeconds = r.Server.SimSeconds
			}
		}
		if pt.FleetSimSeconds > 0 {
			pt.Throughput = float64(pt.Served) / pt.FleetSimSeconds
		}
		if pt.Served > 0 {
			pt.CacheHitPct = 100 * float64(hits) / float64(pt.Served)
		}
		sort.Float64s(lat)
		pt.P50Ms = 1e3 * percentile(lat, 0.50)
		pt.P95Ms = 1e3 * percentile(lat, 0.95)
		pt.P99Ms = 1e3 * percentile(lat, 0.99)
		rep.Sweep = append(rep.Sweep, pt)
		rs.Close()
	}

	for i := range rep.Sweep {
		if rep.Sweep[0].Throughput > 0 {
			rep.Sweep[i].Speedup = rep.Sweep[i].Throughput / rep.Sweep[0].Throughput
		}
	}

	fmt.Fprintf(w, "qbench replica sweep: %d rows, leader p=%d, %d queries/point, %d ingest batches x %d rows, maxlag %d\n",
		cfg.rows, cfg.leaderP, cfg.queries, cfg.ingBatches, cfg.ingRows, cfg.maxLag)
	fmt.Fprintf(w, "%5s %8s %12s %10s %8s %10s %10s %10s %7s %6s %6s\n",
		"repl", "served", "fleet_sim_s", "q/sim_s", "speedup", "p50_ms", "p95_ms", "p99_ms", "hit%", "waits", "boots")
	for _, pt := range rep.Sweep {
		fmt.Fprintf(w, "%5d %8d %12.3f %10.1f %7.2fx %10.3f %10.3f %10.3f %6.1f%% %6d %6d\n",
			pt.Replicas, pt.Served, pt.FleetSimSeconds, pt.Throughput, pt.Speedup,
			pt.P50Ms, pt.P95Ms, pt.P99Ms, pt.CacheHitPct, pt.StalenessWaits, pt.Bootstraps)
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

// percentile returns the q-th percentile of sorted values (nearest
// rank), 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)-1))
	return sorted[i]
}
