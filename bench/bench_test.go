package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// smoke is the benchmark at a fiftieth of its size: two timed cycles,
// samples of a few milliseconds.
var smoke = config{seed: 7, cycles: 2, floor: 5 * time.Millisecond, scale: 0.02}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, res *result, defs []metricDef, positive bool) {
	t.Helper()
	if res.Failed != 0 {
		t.Fatalf("%s: %d of %d operations failed: %v", res.Workload, res.Failed, res.Attempted, res.Errors)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics, want %d", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", res.Workload, d.name)
		case !nameRE.MatchString(d.name) || m.Unit != d.unit || m.Unit == "":
			t.Errorf("%s: metric %q has unit %q, want %q", res.Workload, d.name, m.Unit, d.unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (positive && m.Value <= 0):
			t.Errorf("%s: metric %s is %v", res.Workload, d.name, m.Value)
		}
	}
}

// TestSmoke runs every workload twice end to end at smoke size: all 13
// metrics come out with their units, nothing fails the oracle, and the
// simulated-clock and byte-count metrics repeat.
func TestSmoke(t *testing.T) {
	ws := workloads(smoke.scale)
	if testing.Short() {
		ws = ws[2:]
	}
	for _, w := range ws {
		var runs [2]*result
		for i := range runs {
			res, err := runWorkload(w, smoke, false, "")
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, res, endToEnd, true)
			runs[i] = res
		}
		for _, name := range []string{"build_sim_s", "snapshot_bytes_per_cube_row", "query_sim_mean_ms", "ingest_sim_s_per_batch"} {
			a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value
			if !repeats(a, b) {
				t.Errorf("%s: %s is %v then %v", w.name, name, a, b)
			}
		}
	}
}

// TestTrace runs one traced workload: every per-layer metric comes out
// and the Chrome-trace file parses with every span closed and parented.
func TestTrace(t *testing.T) {
	w := workloads(smoke.scale)[2]
	file := filepath.Join(t.TempDir(), "trace.json")
	res, err := runWorkload(w, smoke, true, file)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics(t, res, perLayer, false)

	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string
			Ts   float64
			Dur  float64
			Args struct{ ID, Parent int }
		}
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	ev := trace.TraceEvents
	if len(ev) == 0 {
		t.Fatal("no spans")
	}
	for i, e := range ev {
		if e.Args.ID != i+1 || e.Dur < 0 {
			t.Fatalf("span %d (%s) has id %d, duration %v", i+1, e.Name, e.Args.ID, e.Dur)
		}
		switch p := e.Args.Parent; {
		case p == 0 && e.Name != "cycle", p < 0, p > len(ev):
			t.Fatalf("span %d (%s) has parent %d", i+1, e.Name, p)
		case p > 0:
			// A child lies inside its parent, up to clock reads.
			if par := ev[p-1]; e.Ts < par.Ts-1 || e.Ts+e.Dur > par.Ts+par.Dur+1 {
				t.Fatalf("span %d (%s) lies outside its parent %d (%s)", i+1, e.Name, p, par.Name)
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in the code in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []jsonMetric `json:"end_to_end"`
		PerLayer  []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads(1)
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("%d workloads, code has %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if got := spec.Workloads[i]; got.Name != w.name || got.Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d is %+v, code has %s: %s", i, got, w.name, w.why)
		}
	}
	same := func(kind string, got []jsonMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics, code has %d", len(got), kind, len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
				t.Errorf("%s metric %d is %+v, code has %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
}
