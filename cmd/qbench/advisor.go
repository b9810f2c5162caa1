// The -advisor scenario: workload-driven adaptive materialization.
//
// Three arms serve the identical Zipf-skewed group-by stream,
// sequentially and with caching disabled, so per-query simulated cost
// is fully attributable to the materialized view set:
//
//   - full:    the full cube (every view), the latency floor.
//   - static:  a minimal cube materializing only the full view — every
//     query is a superset fallback scan, the latency ceiling.
//   - advisor: starts exactly like static, but a materialization
//     advisor steps every -advise-every queries, mining the demand
//     counters and building hot rollups online / retiring cold ones.
//
// The report (optionally BENCH_PR8.json via -out) carries the advisor
// arm's convergence trajectory and the two acceptance ratios: final
// p50 vs the full cube, and final view count vs the full lattice.
// Every answer in every arm is digest-checked against the full-cube
// arm — adaptation must never change an answer.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"sort"

	rolap "repro"
)

// advisorShape is one group-by shape of the Zipf mix.
type advisorShape struct {
	group []string
}

// makeAdvisorMix builds the deterministic query stream: a pool of
// distinct 1–2 dimension group-by shapes (plus the grand total) drawn
// through a Zipf distribution, so a few shapes dominate and a long
// tail stays cold.
func makeAdvisorMix(cfg config) ([]advisorShape, []int) {
	dims := benchSchema().Dimensions
	rng := rand.New(rand.NewSource(cfg.seed + 3))
	seen := map[string]bool{}
	var pool []advisorShape
	add := func(group []string) {
		key := fmt.Sprint(group)
		if !seen[key] {
			seen[key] = true
			pool = append(pool, advisorShape{group: group})
		}
	}
	add(nil) // grand total
	for len(pool) < 14 {
		perm := rng.Perm(len(dims))
		n := 1 + rng.Intn(2)
		var group []string
		for _, u := range perm[:n] {
			group = append(group, dims[u].Name)
		}
		add(group)
	}
	zipf := rand.NewZipf(rng, 1.4, 1, uint64(len(pool)-1))
	picks := make([]int, cfg.queries)
	for i := range picks {
		picks[i] = int(zipf.Uint64())
	}
	return pool, picks
}

// digestView folds a group-by result into a comparable fingerprint.
func digestView(vw *rolap.View) uint64 {
	h := fnv.New64a()
	for _, a := range vw.Attributes {
		fmt.Fprintf(h, "%s|", a)
	}
	for i := 0; i < vw.Len(); i++ {
		key, m := vw.Row(i)
		fmt.Fprintf(h, "%v=%d;", key, m)
	}
	return h.Sum64()
}

// trajPoint is one advisor step of the convergence trajectory.
type trajPoint struct {
	Step         int     `json:"step"`
	Views        int     `json:"views"`
	StorageBytes int64   `json:"storage_bytes"`
	Materialized int64   `json:"materialized_total"`
	Retired      int64   `json:"retired_total"`
	P50Ms        float64 `json:"window_p50_ms"`
	P99Ms        float64 `json:"window_p99_ms"`
}

// armResult is one arm's summary.
type armResult struct {
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	SimSeconds   float64 `json:"sim_seconds"`
	Views        int     `json:"views"`
	StorageBytes int64   `json:"storage_bytes"`
	RowsScanned  int64   `json:"rows_scanned"`
}

// advisorReport is the BENCH_PR8.json payload.
type advisorReport struct {
	Bench      string `json:"bench"`
	Rows       int    `json:"rows"`
	Procs      int    `json:"procs"`
	Queries    int    `json:"queries"`
	StepEvery  int    `json:"advise_every"`
	Seed       int64  `json:"seed"`
	PoolShapes int    `json:"pool_shapes"`

	Full    armResult `json:"full"`
	Static  armResult `json:"static"`
	Advisor armResult `json:"advisor"`

	Trajectory   []trajPoint `json:"trajectory"`
	FinalP50Ms   float64     `json:"advisor_final_window_p50_ms"`
	FinalP99Ms   float64     `json:"advisor_final_window_p99_ms"`
	P50RatioFull float64     `json:"advisor_final_p50_over_full_p50"`
	ViewFraction float64     `json:"advisor_view_fraction_of_full"`
	Converged    bool        `json:"converged"`

	OracleChecked    int `json:"oracle_checked"`
	OracleMismatches int `json:"oracle_mismatches"`
}

// serveAdvisorArm drives the workload through one arm. adv non-nil
// steps the advisor every stepEvery queries and records the
// trajectory. Returns per-query latencies, per-query digests, and the
// trajectory (nil without an advisor).
func serveAdvisorArm(cube *rolap.Cube, pool []advisorShape, picks []int,
	adv *rolap.Advisor, stepEvery int) ([]float64, []uint64, []trajPoint, *rolap.ServerStats, error) {
	srv, err := cube.NewServer(rolap.ServerOptions{
		Workers: 1, QueueDepth: len(picks) + 1, CacheSize: -1, NoCoalesce: true,
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	ctx := context.Background()
	lat := make([]float64, 0, len(picks))
	digests := make([]uint64, 0, len(picks))
	var traj []trajPoint
	windowStart := 0
	for i, k := range picks {
		sh := pool[k]
		vw, qm, err := srv.GroupBy(ctx, sh.group, nil)
		if err != nil {
			return nil, nil, nil, nil, fmt.Errorf("query %d %v: %w", i, sh.group, err)
		}
		lat = append(lat, qm.SimSeconds)
		digests = append(digests, digestView(vw))
		if adv != nil && stepEvery > 0 && (i+1)%stepEvery == 0 {
			if _, err := adv.Step(); err != nil {
				return nil, nil, nil, nil, fmt.Errorf("advisor step: %w", err)
			}
			st := adv.Stats()
			win := append([]float64(nil), lat[windowStart:]...)
			sort.Float64s(win)
			traj = append(traj, trajPoint{
				Step:         int(st.Steps),
				Views:        st.CurrentViews,
				StorageBytes: st.StorageBytes,
				Materialized: st.Materialized,
				Retired:      st.Retired,
				P50Ms:        1e3 * percentile(win, 0.50),
				P99Ms:        1e3 * percentile(win, 0.99),
			})
			windowStart = len(lat)
		}
	}
	st := srv.Stats()
	return lat, digests, traj, &st, nil
}

func summarize(lat []float64, st *rolap.ServerStats, views int, storage int64) armResult {
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	return armResult{
		P50Ms:        1e3 * percentile(sorted, 0.50),
		P99Ms:        1e3 * percentile(sorted, 0.99),
		SimSeconds:   st.SimSeconds,
		Views:        views,
		StorageBytes: storage,
		RowsScanned:  st.RowsScanned,
	}
}

// cubeStorageBytes sums the materialized views' row storage.
func cubeStorageBytes(c *rolap.Cube) int64 {
	met := c.Metrics()
	return met.OutputBytes
}

func runAdvisor(cfg config, w io.Writer) error {
	pool, picks := makeAdvisorMix(cfg)
	procs := cfg.procs[0]
	dims := benchSchema().Dimensions
	var allNames []string
	for _, d := range dims {
		allNames = append(allNames, d.Name)
	}
	fullViews := 1 << len(dims)

	build := func(minimal bool) (*rolap.Cube, error) {
		in, err := buildInput(cfg)
		if err != nil {
			return nil, err
		}
		opts := rolap.Options{Processors: procs}
		if minimal {
			opts.SelectedViews = [][]string{allNames}
		}
		return rolap.Build(in, opts)
	}

	// Arm 1: full cube — the floor and the answer oracle.
	fullCube, err := build(false)
	if err != nil {
		return fmt.Errorf("qbench: build full: %w", err)
	}
	fullLat, oracle, _, fullStats, err := serveAdvisorArm(fullCube, pool, picks, nil, 0)
	if err != nil {
		return fmt.Errorf("qbench: full arm: %w", err)
	}

	// Arm 2: static-minimal — every query scans the full view.
	staticCube, err := build(true)
	if err != nil {
		return fmt.Errorf("qbench: build static: %w", err)
	}
	staticLat, staticDig, _, staticStats, err := serveAdvisorArm(staticCube, pool, picks, nil, 0)
	if err != nil {
		return fmt.Errorf("qbench: static arm: %w", err)
	}

	// Arm 3: adaptive — static start plus a stepping advisor.
	advCube, err := build(true)
	if err != nil {
		return fmt.Errorf("qbench: build advisor: %w", err)
	}
	budget := fullViews * 35 / 100 // the acceptance cap, enforced by the advisor itself
	adv, err := advCube.NewAdvisor(rolap.AdvisorOptions{
		MaxViews:           budget,
		MinFallbacks:       2,
		MaterializePerStep: 2,
		RetirePerStep:      1,
		Seed:               cfg.seed,
	})
	if err != nil {
		return err
	}
	advLat, advDig, traj, advStats, err := serveAdvisorArm(advCube, pool, picks, adv, cfg.stepEvery)
	if err != nil {
		return fmt.Errorf("qbench: advisor arm: %w", err)
	}

	mismatches := 0
	for i := range oracle {
		if staticDig[i] != oracle[i] || advDig[i] != oracle[i] {
			mismatches++
		}
	}

	rep := advisorReport{
		Bench:      "advisor-convergence",
		Rows:       cfg.rows,
		Procs:      procs,
		Queries:    cfg.queries,
		StepEvery:  cfg.stepEvery,
		Seed:       cfg.seed,
		PoolShapes: len(pool),
		Full:       summarize(fullLat, fullStats, fullViews, cubeStorageBytes(fullCube)),
		Static:     summarize(staticLat, staticStats, 1, cubeStorageBytes(staticCube)),
		Advisor: summarize(advLat, advStats,
			len(advCube.Views()), cubeStorageBytes(advCube)),
		Trajectory:       traj,
		OracleChecked:    2 * len(oracle),
		OracleMismatches: mismatches,
	}
	if n := len(traj); n > 0 {
		rep.FinalP50Ms = traj[n-1].P50Ms
		rep.FinalP99Ms = traj[n-1].P99Ms
	}
	if rep.Full.P50Ms > 0 {
		rep.P50RatioFull = rep.FinalP50Ms / rep.Full.P50Ms
	}
	rep.ViewFraction = float64(rep.Advisor.Views) / float64(fullViews)
	rep.Converged = rep.P50RatioFull <= 1.25 && rep.ViewFraction <= 0.35 && mismatches == 0

	fmt.Fprintf(w, "qbench advisor: %d rows, p=%d, %d queries over %d shapes, step every %d\n",
		cfg.rows, procs, cfg.queries, len(pool), cfg.stepEvery)
	fmt.Fprintf(w, "%-8s %10s %10s %8s %14s %12s\n", "arm", "p50_ms", "p99_ms", "views", "storage_bytes", "rows_scan")
	for _, row := range []struct {
		name string
		a    armResult
	}{{"full", rep.Full}, {"static", rep.Static}, {"advisor", rep.Advisor}} {
		fmt.Fprintf(w, "%-8s %10.3f %10.3f %8d %14d %12d\n",
			row.name, row.a.P50Ms, row.a.P99Ms, row.a.Views, row.a.StorageBytes, row.a.RowsScanned)
	}
	fmt.Fprintf(w, "trajectory:\n")
	for _, pt := range traj {
		fmt.Fprintf(w, "  step %2d: views=%2d storage=%8d p50=%8.3fms p99=%8.3fms (mat %d, ret %d)\n",
			pt.Step, pt.Views, pt.StorageBytes, pt.P50Ms, pt.P99Ms, pt.Materialized, pt.Retired)
	}
	ast := adv.Stats()
	fmt.Fprintf(w, "advise phase: %.6f sim_s, %d bytes moved over %d materializations\n",
		ast.BuildSimSeconds, ast.BuildBytesMoved, ast.Materialized)
	fmt.Fprintf(w, "final window p50 %.3fms = %.2fx full-cube p50; %d/%d views (%.0f%%); oracle %d/%d ok; converged=%v\n",
		rep.FinalP50Ms, rep.P50RatioFull, rep.Advisor.Views, fullViews,
		100*rep.ViewFraction, rep.OracleChecked-rep.OracleMismatches, rep.OracleChecked, rep.Converged)

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

	if cfg.smoke {
		if mismatches > 0 {
			return fmt.Errorf("qbench: %d answers diverged from the full cube", mismatches)
		}
		if rep.FinalP50Ms >= rep.Static.P50Ms {
			return fmt.Errorf("qbench: advisor final p50 %.3fms did not improve on static-minimal %.3fms",
				rep.FinalP50Ms, rep.Static.P50Ms)
		}
		if !rep.Converged {
			return fmt.Errorf("qbench: not converged: p50 ratio %.2fx (cap 1.25), views %.0f%% (cap 35%%)",
				rep.P50RatioFull, 100*rep.ViewFraction)
		}
	}
	return nil
}
