// Command cubeql is an end-to-end ROLAP workbench: ingest a CSV fact
// table, build its (partial) data cube on the simulated shared-nothing
// cluster, optionally snapshot it, and answer group-by queries as CSV.
//
// Build and query in one shot:
//
//	cubeql -csv sales.csv -p 8 -group region,quarter -where product=widget
//
// Materialize only selected views and save a snapshot:
//
//	cubeql -csv sales.csv -select "region,quarter;region;" -save sales.cube
//
// Query a saved snapshot (no rebuild):
//
//	cubeql -snapshot sales.cube -group region
//
// Append a batch of new facts to a built or loaded cube (incremental
// maintenance: the batch is delta-built and merged into the live
// views, no rebuild), then query and optionally re-save:
//
//	cubeql -snapshot sales.cube -ingest new_sales.csv -group region -save sales.cube
//
// Show what the query cost on the simulated cluster (-stats routes the
// query through the serving subsystem and prints per-query metrics to
// stderr):
//
//	cubeql -csv sales.csv -p 8 -group region -where product=widget -stats
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	rolap "repro"
)

func main() {
	csvPath := flag.String("csv", "", "CSV fact table to ingest")
	measure := flag.String("measure", "measure", "measure column name (absent column = COUNT)")
	procs := flag.Int("p", 4, "processors of the simulated cluster")
	selectFlag := flag.String("select", "", "views to materialize, ';'-separated dimension lists (empty list = grand total); default full cube")
	save := flag.String("save", "", "write a cube snapshot to this file")
	snapshot := flag.String("snapshot", "", "load a cube snapshot instead of building")
	ingestPath := flag.String("ingest", "", "CSV batch of new facts to append to the cube before querying")
	groupFlag := flag.String("group", "", "comma-separated dimensions to group by")
	whereFlag := flag.String("where", "", "comma-separated equality filters, dim=value")
	minSupport := flag.Int64("min-support", 0, "iceberg threshold (keep groups with aggregate >= this)")
	agg := flag.String("agg", "sum", `aggregate: sum, min, max, "count distinct", median, or percentile(p) with p in [0,1]`)
	stats := flag.Bool("stats", false, "print per-query cost metrics and the per-view demand table to stderr")
	advise := flag.Int("advise", 0, "run N workload-driven advisor steps after the query: materialize hot fallback targets, retire cold views")
	flag.Parse()

	if err := run(*csvPath, *measure, *procs, *selectFlag, *save, *snapshot, *ingestPath, *groupFlag, *whereFlag, *minSupport, *agg, *stats, *advise); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(csvPath, measure string, procs int, selectFlag, save, snapshot, ingestPath, groupFlag, whereFlag string, minSupport int64, agg string, stats bool, advise int) error {
	var cube *rolap.Cube
	var in *rolap.Input

	aggOp, pct, err := parseAgg(agg)
	if err != nil {
		return err
	}

	switch {
	case snapshot != "":
		f, err := os.Open(snapshot)
		if err != nil {
			return err
		}
		defer f.Close()
		cube, err = rolap.LoadCube(f)
		if err != nil {
			return err
		}
	case csvPath != "":
		f, err := os.Open(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in, err = rolap.LoadCSV(f, rolap.CSVOptions{MeasureColumn: measure})
		if err != nil {
			return err
		}
		opts := rolap.Options{Processors: procs, MinSupport: minSupport, Aggregate: aggOp}
		if sel, err := parseSelect(selectFlag); err != nil {
			return err
		} else if sel != nil {
			opts.SelectedViews = sel
		}
		cube, err = rolap.Build(in, opts)
		if err != nil {
			return err
		}
		met := cube.Metrics()
		fmt.Fprintf(os.Stderr, "built %d views, %d rows in %.1f simulated s on %d processors\n",
			len(cube.Views()), met.OutputRows, met.SimSeconds, met.Processors)
	default:
		return fmt.Errorf("cubeql: need -csv or -snapshot")
	}

	if ingestPath != "" {
		f, err := os.Open(ingestPath)
		if err != nil {
			return err
		}
		im, err := cube.IngestCSV(f, rolap.CSVOptions{MeasureColumn: measure})
		f.Close()
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "ingested %d rows in %.3f simulated s (%.3f s delta merge), %d views updated\n",
			im.Rows, im.SimSeconds, im.DeltaMergeSeconds, len(im.ChangedViews))
	}

	if save != "" {
		f, err := os.Create(save)
		if err != nil {
			return err
		}
		if err := cube.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "snapshot written to %s\n", save)
	}

	if groupFlag == "" {
		return runAdvise(cube, advise)
	}
	dims := splitList(groupFlag)
	// Queries on a snapshot have no *Input dictionaries accessible here;
	// the cube carries them internally, but filters arrive as strings,
	// which we can only resolve with the build-time input. For
	// snapshots, filters use numeric codes.
	filters, err := parseWhere(whereFlag, in)
	if err != nil {
		return err
	}
	q := rolap.Query{Group: dims}
	for dim, code := range filters {
		q.Bounds = append(q.Bounds, rolap.Bound{Dim: dim, Lo: code, Hi: code})
	}
	if aggOp == rolap.Quantile && cube.Holistic() {
		q.Percentile = &pct
	}
	// -stats routes the query through the serving subsystem, whose
	// per-view demand table is part of the report.
	var qr rolap.Querier = cube
	var srv *rolap.Server
	if stats {
		if srv, err = cube.NewServer(rolap.ServerOptions{}); err != nil {
			return err
		}
		qr = srv
	}
	vw, qm, err := qr.Do(context.Background(), q)
	if err != nil {
		return err
	}
	if stats {
		fmt.Fprintf(os.Stderr, "query: source=[%s] rows_scanned=%d bytes_moved=%d sim_s=%.6f index=%v cache_hit=%v\n",
			strings.Join(qm.SourceView, ","), qm.RowsScanned, qm.BytesMoved, qm.SimSeconds, qm.IndexUsed, qm.CacheHit)
		printViewDemand(srv.Stats())
		met := cube.Metrics()
		fmt.Fprintf(os.Stderr, "storage: stored_bytes=%d decoded_bytes=%d\n", met.OutputBytesStored, cube.DecodedBytes())
		printSketchBytes(met)
	}
	if err := runAdvise(cube, advise); err != nil {
		return err
	}
	if in != nil {
		return vw.WriteCSV(os.Stdout, in)
	}
	// Snapshot path: print numeric codes.
	measName := "measure"
	if vw.Estimated {
		measName = "measure_estimate"
	}
	fmt.Println(strings.Join(append(append([]string{}, vw.Attributes...), measName), ","))
	for i := 0; i < vw.Len(); i++ {
		key, m := vw.Row(i)
		parts := make([]string, 0, len(key)+1)
		for _, k := range key {
			parts = append(parts, fmt.Sprint(k))
		}
		parts = append(parts, fmt.Sprint(m))
		fmt.Println(strings.Join(parts, ","))
	}
	return nil
}

// printViewDemand renders the serving tier's per-target-view demand
// table — the signal the materialization advisor mines.
func printViewDemand(st rolap.ServerStats) {
	if len(st.Views) == 0 {
		return
	}
	keys := make([]string, 0, len(st.Views))
	for k := range st.Views {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintln(os.Stderr, "per-view demand:")
	for _, k := range keys {
		vs := st.Views[k]
		name := k
		if name == "" {
			name = "(grand total)"
		}
		fmt.Fprintf(os.Stderr, "  [%s] hits=%d fallbacks=%d cache_hits=%d rows_scanned=%d\n",
			name, vs.Hits, vs.Fallbacks, vs.CacheHits, vs.RowsScanned)
	}
}

// runAdvise runs n advisor steps against the live cube, printing each
// executed action.
func runAdvise(cube *rolap.Cube, n int) error {
	if n <= 0 {
		return nil
	}
	adv, err := cube.NewAdvisor(rolap.AdvisorOptions{})
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		recs, err := adv.Step()
		if err != nil {
			return err
		}
		for _, r := range recs {
			name := strings.Join(r.View, ",")
			if name == "" {
				name = "(grand total)"
			}
			fmt.Fprintf(os.Stderr, "advise step %d: %s [%s] from [%s] score=%.1f rows=%d\n",
				i+1, r.Action, name, strings.Join(r.From, ","), r.Score, r.EstRows)
		}
	}
	st := adv.Stats()
	fmt.Fprintf(os.Stderr, "advisor: %d steps, %d materialized, %d retired; %d views live, %d bytes\n",
		st.Steps, st.Materialized, st.Retired, st.CurrentViews, st.StorageBytes)
	return nil
}

// defaultPct is the percentile served when the user asks for median
// (or names no rank): rolap's Quantile default.
const defaultPct = 0.5

// parseAgg parses the -agg flag: sum/min/max, the holistic forms
// "count distinct" (aliases: count_distinct, count-distinct, distinct)
// and "percentile(p)" with p in [0,1], and "median" for
// percentile(0.5).
func parseAgg(s string) (rolap.Aggregate, float64, error) {
	norm := strings.ToLower(strings.TrimSpace(s))
	switch strings.ReplaceAll(strings.ReplaceAll(norm, "_", " "), "-", " ") {
	case "sum", "":
		return rolap.Sum, defaultPct, nil
	case "min":
		return rolap.Min, defaultPct, nil
	case "max":
		return rolap.Max, defaultPct, nil
	case "count distinct", "distinct":
		return rolap.CountDistinct, defaultPct, nil
	case "median":
		return rolap.Quantile, defaultPct, nil
	}
	if strings.HasPrefix(norm, "percentile(") && strings.HasSuffix(norm, ")") {
		var pct float64
		arg := norm[len("percentile(") : len(norm)-1]
		if _, err := fmt.Sscanf(arg, "%g", &pct); err != nil || pct < 0 || pct > 1 {
			return 0, 0, fmt.Errorf("cubeql: percentile rank %q must be a number in [0,1]", arg)
		}
		return rolap.Quantile, pct, nil
	}
	return 0, 0, fmt.Errorf("cubeql: unknown aggregate %q", s)
}

// printSketchBytes renders a holistic cube's per-view sketch storage —
// the price of serving distinct counts / percentiles mergeably.
func printSketchBytes(met rolap.Metrics) {
	if met.SketchBytes == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "sketch state: %d bytes total\n", met.SketchBytes)
	keys := make([]string, 0, len(met.ViewSketchBytes))
	for k := range met.ViewSketchBytes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		name := k
		if name == "" {
			name = "(grand total)"
		}
		fmt.Fprintf(os.Stderr, "  [%s] sketch_bytes=%d\n", name, met.ViewSketchBytes[k])
	}
}

// parseSelect parses "a,b;c;" into view name lists; empty string means
// full cube (nil). A trailing or standalone empty segment is the grand
// total.
func parseSelect(s string) ([][]string, error) {
	if s == "" {
		return nil, nil
	}
	var out [][]string
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			out = append(out, []string{})
			continue
		}
		out = append(out, splitList(part))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("cubeql: empty -select")
	}
	return out, nil
}

// parseWhere parses "dim=value,dim2=value2". String values are
// resolved through the input's dictionaries when available; otherwise
// they must be numeric codes.
func parseWhere(s string, in *rolap.Input) (map[string]uint32, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]uint32{}
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 || kv[0] == "" {
			return nil, fmt.Errorf("cubeql: bad filter %q (want dim=value)", part)
		}
		dim, val := kv[0], kv[1]
		if in != nil {
			if code, ok := in.CodeOf(dim, val); ok {
				out[dim] = code
				continue
			}
		}
		var code uint32
		if _, err := fmt.Sscanf(val, "%d", &code); err != nil {
			return nil, fmt.Errorf("cubeql: filter value %q is neither a known dictionary value nor a code", val)
		}
		out[dim] = code
	}
	return out, nil
}

// splitList splits a comma-separated list, trimming whitespace.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}
