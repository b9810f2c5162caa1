// Command bench is the repository's benchmark: four workloads through
// one pipeline (CSV -> build -> save -> restore -> serve -> advise ->
// ingest), measured from outside through the public API on two clocks —
// the host's and the simulated Beowulf's — with every answer checked
// against an oracle. See README.md for the metrics and how to read them.
//
//	bash bench/run.sh --workload serve-scan --seed 1 --seconds 23 --trace 0
//	bash bench/run.sh -selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end metrics only
}

// endToEnd lists the 13 metrics a user of the system would see. Every
// workload reports every one. A bound is at least three times the
// spread (inter-quartile range over median) the metric showed over ten
// seeds on the 2-core host the benchmark was written on: host-clock
// metrics moved 10-20 % with the host's memory system whatever the
// estimator, so they take the largest bound the contract allows; the
// simulated-clock and byte-count metrics repeat exactly for one seed
// and differ between seeds by the share their bound covers.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"cold_path_s", "s", "lower", 0.25},
	{"build_rows_per_s", "rows/s", "higher", 0.25},
	{"build_alloc_bytes_per_row", "B/row", "lower", 0.10},
	{"build_sim_s", "sim_s", "lower", 0.15},
	{"snapshot_bytes_per_cube_row", "B/row", "lower", 0.04},
	{"restore_s", "s", "lower", 0.25},
	{"query_qps", "1/s", "higher", 0.25},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p99_ms", "ms", "lower", 0.25},
	{"query_sim_mean_ms", "sim_ms", "lower", 0.05},
	{"ingest_rows_per_s", "rows/s", "higher", 0.25},
	{"ingest_sim_s_per_batch", "sim_s", "lower", 0.05},
}

// metric is one measured value, as the result line carries it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// phaseStat is the spread behind a headline value: a phase's seconds
// per call over the timed cycles.
type phaseStat struct {
	Fastest float64 `json:"fastest_s"`
	Median  float64 `json:"median_s"`
	IQR     float64 `json:"iqr_s"`
	Cycles  int     `json:"cycles"`
}

// result is one workload's run.
type result struct {
	Workload  string               `json:"workload"`
	Why       string               `json:"why"`
	Metrics   map[string]metric    `json:"metrics"`
	Phases    map[string]phaseStat `json:"phases"`
	Attempted int64                `json:"ops_attempted"`
	Failed    int64                `json:"ops_failed"`
	Errors    []string             `json:"errors,omitempty"`
	WallS     float64              `json:"wall_s"`
}

// report is what -out writes.
type report struct {
	Seed       int64     `json:"seed"`
	GoVersion  string    `json:"go_version"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GOGC       string    `json:"gogc"`
	NumCPU     int       `json:"nproc"`
	Commit     string    `json:"commit"`
	Traced     bool      `json:"traced"`
	Results    []*result `json:"results"`
}

func newReport(seed int64, traced bool) *report {
	rep := &report{
		Seed: seed, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOGC: os.Getenv("GOGC"), NumCPU: runtime.NumCPU(), Commit: "unknown", Traced: traced,
	}
	if rep.GOGC == "" {
		rep.GOGC = "100 (default)"
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rep.Commit = s.Value
			}
		}
	}
	return rep
}

// runWorkload sets the workload up, runs its cycles and computes its
// metrics: the end-to-end ones, or with traced the per-layer ones.
func runWorkload(w *workload, cfg config, traced bool, traceFile string) (*result, error) {
	start := time.Now()
	// Set-up is timed as a whole, three times, and the fastest counts.
	setups := 3
	if traced {
		setups = 1
	}
	var in *inputs
	setup := math.Inf(1)
	for i := 0; i < setups; i++ {
		in = nil
		runtime.GC()
		t0 := time.Now()
		in = generate(w, cfg.seed)
		setup = math.Min(setup, time.Since(t0).Seconds())
	}

	o := &ops{}
	r := newRunner(in, cfg, o)
	if traced {
		r.tracer = newTracer()
	}
	if err := r.run(traced); err != nil {
		return nil, fmt.Errorf("%s: %w (%s)", w.name, err, strings.Join(o.errs, "; "))
	}
	res := &result{Workload: w.name, Why: w.why, Phases: map[string]phaseStat{}}
	if traced {
		res.Metrics = r.layerMetrics()
		if traceFile != "" {
			if err := r.tracer.write(traceFile, w.name); err != nil {
				return nil, err
			}
		}
	} else {
		res.Metrics = r.endToEndMetrics(setup)
	}
	for name, ss := range r.phases {
		s := secs(ss)
		res.Phases[name] = phaseStat{fastest(ss), median(s), quantile(s, 0.75) - quantile(s, 0.25), len(s)}
	}
	res.Attempted, res.Failed, res.Errors = o.attempted.Load(), o.failed.Load(), o.errs
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

// endToEndMetrics turns the timed cycles into the 13 end-to-end metrics.
func (r *runner) endToEndMetrics(setup float64) map[string]metric {
	w := r.in.w
	p := r.phases
	n := float64(w.rows)

	// The fastest cycle's whole cold path, not the sum of each phase's
	// fastest: it is one user's wait from CSV to first answer.
	cold := math.Inf(1)
	for c := range p["build"] {
		cold = math.Min(cold, p["csv"][c].sec+p["build"][c].sec+p["save"][c].sec+p["restore"][c].sec)
	}
	allocs := make([]float64, len(p["build"]))
	for c, s := range p["build"] {
		allocs[c] = s.bytes
	}
	var batchSim float64
	for _, s := range r.batchSim {
		batchSim += s
	}
	batchRows := float64(len(r.in.batches) * w.batchRows)

	vals := map[string]float64{
		"setup_s":                     setup,
		"cold_path_s":                 cold,
		"build_rows_per_s":            n / fastest(p["build"]),
		"build_alloc_bytes_per_row":   median(allocs) / n,
		"build_sim_s":                 r.buildSim,
		"snapshot_bytes_per_cube_row": float64(r.snapshotBytes) / float64(r.outputRows),
		"restore_s":                   fastest(p["restore"]),
		"query_qps":                   float64(len(r.in.list)) / fastest(p["serve"]),
		"query_p50_ms":                percentile(r.lat, 0.50) * 1e3,
		"query_p99_ms":                percentile(r.lat, 0.99) * 1e3,
		"query_sim_mean_ms":           r.before.simMs,
		"ingest_rows_per_s":           batchRows / fastest(p["ingest"]),
		"ingest_sim_s_per_batch":      batchSim / float64(len(r.batchSim)),
	}
	out := map[string]metric{}
	for _, d := range endToEnd {
		out[d.name] = metric{vals[d.name], d.unit}
	}
	return out
}

// printResult writes the metrics by name and unit, then the spread of
// every phase over the cycles.
func printResult(res *result, defs []metricDef) {
	fmt.Printf("== %s  (%.1f s, %d operations, %d failed)\n", res.Workload, res.WallS, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("  %-34s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	names := make([]string, 0, len(res.Phases))
	for name := range res.Phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ps := res.Phases[name]
		fmt.Printf("  phase %-10s fastest %9.4f s  median %9.4f s  iqr %9.4f s  over %d cycles\n",
			name, ps.Fastest, ps.Median, ps.IQR, ps.Cycles)
	}
	for _, e := range res.Errors {
		fmt.Printf("  FAILED %s\n", e)
	}
}

// resultLine is the last line of standard output when one workload ran.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type workloadFlag []string

func (f *workloadFlag) String() string     { return strings.Join(*f, ",") }
func (f *workloadFlag) Set(s string) error { *f = append(*f, s); return nil }

func main() {
	var names workloadFlag
	flag.Var(&names, "workload", "workload to run (repeatable; default all)")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 23, "how long the timed cycles go on (never fewer than 8 cycles)")
	cycles := flag.Int("cycles", 0, "run exactly this many timed cycles instead")
	trace := flag.Int("trace", 0, "1: traced run, reports the per-layer metrics instead of the end-to-end ones")
	traceDir := flag.String("tracedir", "", "with -trace 1, directory to write <workload>.trace.json (Chrome trace) into")
	out := flag.String("out", "", "write the full report (provenance, metrics, phase spreads) to this file")
	selfcheck := flag.Bool("selfcheck", false, "run everything twice and fail unless the two sets agree within the bounds")
	flag.Parse()

	cfg := config{seed: *seed, seconds: *seconds, cycles: *cycles, floor: sampleFloor, scale: 1}
	all := workloads(cfg.scale)
	var chosen []*workload
	for _, name := range names {
		found := false
		for _, w := range all {
			if w.name == name {
				chosen, found = append(chosen, w), true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
			os.Exit(2)
		}
	}
	if len(chosen) == 0 {
		chosen = all
	}

	if *selfcheck {
		if !selfCheck(chosen, cfg) {
			os.Exit(1)
		}
		return
	}

	traced := *trace != 0
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	rep := newReport(*seed, traced)
	failed := false
	for _, w := range chosen {
		traceFile := ""
		if traced && *traceDir != "" {
			if err := os.MkdirAll(*traceDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			traceFile = filepath.Join(*traceDir, w.name+".trace.json")
		}
		res, err := runWorkload(w, cfg, traced, traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		rep.Results = append(rep.Results, res)
		printResult(res, defs)
		failed = failed || res.Failed > 0
	}
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
	}
	if len(rep.Results) == 1 {
		res := rep.Results[0]
		line, err := json.Marshal(resultLine{res.Failed == 0, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	if failed {
		os.Exit(1)
	}
}

// selfCheck runs the chosen workloads twice and prints both sets side
// by side. It passes when every end-to-end metric of the second set is
// within its bound of the first, and the simulated-clock and byte-count
// metrics repeat.
func selfCheck(chosen []*workload, cfg config) bool {
	exact := map[string]bool{
		"build_sim_s": true, "snapshot_bytes_per_cube_row": true,
		"query_sim_mean_ms": true, "ingest_sim_s_per_batch": true,
	}
	var sets [2][]*result
	for i := range sets {
		for _, w := range chosen {
			res, err := runWorkload(w, cfg, false, "")
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return false
			}
			sets[i] = append(sets[i], res)
		}
	}
	ok := true
	fmt.Printf("| workload | metric | unit | run 1 | run 2 | change | bound | |\n|---|---|---|---|---|---|---|---|\n")
	for k, a := range sets[0] {
		b := sets[1][k]
		if a.Failed+b.Failed > 0 {
			fmt.Printf("%s: %d operations failed\n", a.Workload, a.Failed+b.Failed)
			ok = false
		}
		for _, d := range endToEnd {
			x, y := a.Metrics[d.name].Value, b.Metrics[d.name].Value
			change := math.Abs(y-x) / x
			verdict := "ok"
			if (exact[d.name] && !repeats(y, x)) || change > d.bound {
				verdict, ok = "FAIL", false
			}
			bound := fmt.Sprintf("%.0f %%", d.bound*100)
			if exact[d.name] {
				bound = "exact"
			}
			fmt.Printf("| %s | %s | %s | %.6g | %.6g | %.2f %% | %s | %s |\n",
				a.Workload, d.name, d.unit, x, y, change*100, bound, verdict)
		}
	}
	return ok
}
