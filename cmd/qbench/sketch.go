package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	rolap "repro"
)

// runSketch is qbench's -sketch mode: the accuracy and cost experiment
// for the holistic-measure subsystem, in three arms over the same
// generated facts.
//
//  1. Exact oracle: a host-side brute-force group-by over the raw
//     facts (the gather oracle every estimate is judged against).
//  2. Distinct arm: CountDistinct cubes across a sweep of per-group
//     cardinalities, crossing the sketches' exact threshold into the
//     probabilistic FM regime; relative error per cardinality.
//  3. Quantile arm: a Quantile cube over heavy-tailed values, queried
//     at a sweep of percentile ranks; relative error per rank.
//
// The report also measures build-cost overhead (holistic vs Sum build
// of the same facts: simulated time, network bytes, sketch storage).
// The run exits non-zero unless every relative error is within the
// bound.
const sketchErrBound = 0.05

// sketchReport is the BENCH_PR10.json payload.
type sketchReport struct {
	Seed      int64              `json:"seed"`
	Bound     float64            `json:"rel_err_bound"`
	Distinct  []distinctAccuracy `json:"distinct_by_cardinality"`
	Quantile  []quantileAccuracy `json:"quantile_by_rank"`
	BuildCost sketchBuildCost    `json:"build_cost"`
	Pass      bool               `json:"pass"`
}

type distinctAccuracy struct {
	Cardinality int     `json:"cardinality"`
	Groups      int     `json:"groups"`
	Rows        int     `json:"rows"`
	MaxRelErr   float64 `json:"max_rel_err"`
	MeanRelErr  float64 `json:"mean_rel_err"`
}

type quantileAccuracy struct {
	Rank       float64 `json:"rank"`
	Groups     int     `json:"groups"`
	MaxRelErr  float64 `json:"max_rel_err"`
	MeanRelErr float64 `json:"mean_rel_err"`
}

type sketchBuildCost struct {
	Rows                int     `json:"rows"`
	SumSimSeconds       float64 `json:"sum_sim_seconds"`
	DistinctSimSeconds  float64 `json:"distinct_sim_seconds"`
	QuantileSimSeconds  float64 `json:"quantile_sim_seconds"`
	SumBytesMoved       int64   `json:"sum_bytes_moved"`
	DistinctBytesMoved  int64   `json:"distinct_bytes_moved"`
	QuantileBytesMoved  int64   `json:"quantile_bytes_moved"`
	DistinctSketchBytes int64   `json:"distinct_sketch_bytes"`
	QuantileSketchBytes int64   `json:"quantile_sketch_bytes"`
}

func runSketch(cfg config, w io.Writer) error {
	rep := sketchReport{Seed: cfg.seed, Bound: sketchErrBound, Pass: true}

	// Distinct arm: 4 groups per build, per-group value range swept
	// through the exact threshold (4096) into the FM regime.
	for _, card := range []int{400, 1600, 6400, 25600} {
		acc, err := distinctArm(card, uint64(cfg.seed))
		if err != nil {
			return err
		}
		if acc.MaxRelErr > sketchErrBound {
			rep.Pass = false
		}
		rep.Distinct = append(rep.Distinct, acc)
		fmt.Fprintf(w, "distinct card=%-6d groups=%d rows=%-7d max_rel_err=%.4f mean_rel_err=%.4f\n",
			acc.Cardinality, acc.Groups, acc.Rows, acc.MaxRelErr, acc.MeanRelErr)
	}

	// Quantile arm + build-cost overhead share one fact table.
	quant, cost, err := quantileArm(cfg, uint64(cfg.seed)*3+1)
	if err != nil {
		return err
	}
	for _, qa := range quant {
		if qa.MaxRelErr > sketchErrBound {
			rep.Pass = false
		}
		rep.Quantile = append(rep.Quantile, qa)
		fmt.Fprintf(w, "quantile q=%-5.2f groups=%d max_rel_err=%.4f mean_rel_err=%.4f\n",
			qa.Rank, qa.Groups, qa.MaxRelErr, qa.MeanRelErr)
	}
	rep.BuildCost = cost
	fmt.Fprintf(w, "build cost (%d rows): sum=%.2fs distinct=%.2fs quantile=%.2fs; sketch bytes distinct=%d quantile=%d\n",
		cost.Rows, cost.SumSimSeconds, cost.DistinctSimSeconds, cost.QuantileSimSeconds,
		cost.DistinctSketchBytes, cost.QuantileSketchBytes)

	if cfg.out != "" {
		if err := writeJSON(cfg.out, rep); err != nil {
			return err
		}
		fmt.Fprintf(w, "report written to %s\n", cfg.out)
	}
	if !rep.Pass {
		return fmt.Errorf("qbench -sketch: accuracy gate failed (bound %.2f)", sketchErrBound)
	}
	fmt.Fprintf(w, "sketch gates passed: every estimate within %.0f%%\n", sketchErrBound*100)
	return nil
}

// sketchFacts builds facts over one 4-ary grouping dimension with
// measures drawn uniformly from [0, valRange).
func sketchFacts(n, valRange int, seed uint64) ([][]uint32, []int64) {
	x := seed*0x9e3779b97f4a7c15 | 1
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	rows := make([][]uint32, n)
	meas := make([]int64, n)
	for i := 0; i < n; i++ {
		rows[i] = []uint32{uint32(next() % 4)}
		meas[i] = int64(next() % uint64(valRange))
	}
	return rows, meas
}

func sketchInput(rows [][]uint32, meas []int64) (*rolap.Input, error) {
	in, err := rolap.NewInput(rolap.Schema{Dimensions: []rolap.Dimension{{Name: "g", Cardinality: 4}}})
	if err != nil {
		return nil, err
	}
	for i := range rows {
		if err := in.AddRow(rows[i], meas[i]); err != nil {
			return nil, err
		}
	}
	return in, nil
}

// distinctArm builds a CountDistinct cube whose groups draw values
// from [0, card) and scores the estimates against the exact oracle.
func distinctArm(card int, seed uint64) (distinctAccuracy, error) {
	n := 4 * card // ~63% coverage of the range per group; oracle is exact regardless
	rows, meas := sketchFacts(n, card, seed+uint64(card))
	in, err := sketchInput(rows, meas)
	if err != nil {
		return distinctAccuracy{}, err
	}
	cube, err := rolap.Build(in, rolap.Options{Processors: 4, Aggregate: rolap.CountDistinct})
	if err != nil {
		return distinctAccuracy{}, err
	}
	exact := map[uint32]map[int64]bool{}
	for i := range rows {
		g := rows[i][0]
		if exact[g] == nil {
			exact[g] = map[int64]bool{}
		}
		exact[g][meas[i]] = true
	}
	vw, err := cube.GroupBy([]string{"g"}, nil)
	if err != nil {
		return distinctAccuracy{}, err
	}
	acc := distinctAccuracy{Cardinality: card, Groups: vw.Len(), Rows: n}
	var sum float64
	for i := 0; i < vw.Len(); i++ {
		key, got := vw.Row(i)
		want := float64(len(exact[key[0]]))
		rel := math.Abs(float64(got)-want) / want
		sum += rel
		if rel > acc.MaxRelErr {
			acc.MaxRelErr = rel
		}
	}
	acc.MeanRelErr = sum / float64(vw.Len())
	return acc, nil
}

// quantileArm builds Sum, CountDistinct, and Quantile cubes over one
// heavy-tailed fact table: percentile accuracy from the Quantile cube,
// build-cost overhead from all three.
func quantileArm(cfg config, seed uint64) ([]quantileAccuracy, sketchBuildCost, error) {
	n := cfg.rows
	if n < 1000 {
		n = 1000
	}
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
		rows[i] = []uint32{uint32(next() % 4)}
		// Log-uniform in [1, ~1e6): exercises the full code ladder.
		u := float64(next()%1_000_000) / 1_000_000
		meas[i] = 1 + int64(math.Exp(u*math.Log(1e6)))
	}
	build := func(agg rolap.Aggregate) (*rolap.Cube, rolap.Metrics, error) {
		in, err := sketchInput(rows, meas)
		if err != nil {
			return nil, rolap.Metrics{}, err
		}
		c, err := rolap.Build(in, rolap.Options{Processors: 4, Aggregate: agg})
		if err != nil {
			return nil, rolap.Metrics{}, err
		}
		return c, c.Metrics(), nil
	}
	_, sumMet, err := build(rolap.Sum)
	if err != nil {
		return nil, sketchBuildCost{}, err
	}
	_, distMet, err := build(rolap.CountDistinct)
	if err != nil {
		return nil, sketchBuildCost{}, err
	}
	qcube, quantMet, err := build(rolap.Quantile)
	if err != nil {
		return nil, sketchBuildCost{}, err
	}
	cost := sketchBuildCost{
		Rows:                n,
		SumSimSeconds:       sumMet.SimSeconds,
		DistinctSimSeconds:  distMet.SimSeconds,
		QuantileSimSeconds:  quantMet.SimSeconds,
		SumBytesMoved:       sumMet.BytesMoved,
		DistinctBytesMoved:  distMet.BytesMoved,
		QuantileBytesMoved:  quantMet.BytesMoved,
		DistinctSketchBytes: distMet.SketchBytes,
		QuantileSketchBytes: quantMet.SketchBytes,
	}

	byGroup := map[uint32][]int64{}
	for i := range rows {
		byGroup[rows[i][0]] = append(byGroup[rows[i][0]], meas[i])
	}
	for _, vals := range byGroup {
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	}
	var out []quantileAccuracy
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		vw, _, err := qcube.Do(context.Background(), rolap.Query{Group: []string{"g"}, Percentile: &q})
		if err != nil {
			return nil, sketchBuildCost{}, err
		}
		qa := quantileAccuracy{Rank: q, Groups: vw.Len()}
		var sum float64
		for i := 0; i < vw.Len(); i++ {
			key, got := vw.Row(i)
			vals := byGroup[key[0]]
			want := float64(vals[int(q*float64(len(vals)-1))])
			rel := math.Abs(float64(got)-want) / want
			sum += rel
			if rel > qa.MaxRelErr {
				qa.MaxRelErr = rel
			}
		}
		qa.MeanRelErr = sum / float64(vw.Len())
		out = append(out, qa)
	}
	return out, cost, nil
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
