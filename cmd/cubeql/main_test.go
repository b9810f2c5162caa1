package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	rolap "repro"
)

func TestParseSelect(t *testing.T) {
	got, err := parseSelect("a,b; c ;")
	if err != nil || len(got) != 3 {
		t.Fatalf("parseSelect: %v, %v", got, err)
	}
	if len(got[0]) != 2 || got[1][0] != "c" || len(got[2]) != 0 {
		t.Fatalf("parseSelect contents: %v", got)
	}
	if got, _ := parseSelect(""); got != nil {
		t.Fatal("empty should be nil (full cube)")
	}
}

func TestParseWhere(t *testing.T) {
	in, err := rolap.LoadCSV(strings.NewReader("city,measure\nparis,1\nlyon,2\n"), rolap.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseWhere("city=lyon", in)
	if err != nil || len(got) != 1 {
		t.Fatalf("parseWhere: %v, %v", got, err)
	}
	if code, _ := in.CodeOf("city", "lyon"); got["city"] != code {
		t.Fatalf("wrong code: %v", got)
	}
	// Numeric fallback without dictionaries.
	got, err = parseWhere("x=3", nil)
	if err != nil || got["x"] != 3 {
		t.Fatalf("numeric filter: %v, %v", got, err)
	}
	for _, bad := range []string{"nov", "=3", "x=notanumber"} {
		if _, err := parseWhere(bad, nil); err == nil {
			t.Errorf("parseWhere(%q) should fail", bad)
		}
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "facts.csv")
	snapPath := filepath.Join(dir, "cube.bin")
	facts := "region,product,measure\neast,widget,10\neast,nut,5\nwest,widget,7\n"
	if err := os.WriteFile(csvPath, []byte(facts), 0o644); err != nil {
		t.Fatal(err)
	}
	// Build + save + query.
	if err := run(csvPath, "measure", 2, "", snapPath, "", "", "region", "", 0, "sum", false, 0); err != nil {
		t.Fatal(err)
	}
	// Query the snapshot.
	if err := run("", "measure", 2, "", "", snapPath, "", "region", "", 0, "sum", false, 0); err != nil {
		t.Fatal(err)
	}
	// Error paths.
	if err := run("", "measure", 2, "", "", "", "", "", "", 0, "sum", false, 0); err == nil {
		t.Fatal("missing inputs accepted")
	}
	if err := run(csvPath, "measure", 2, "", "", "", "", "", "", 0, "bogus", false, 0); err == nil {
		t.Fatal("bad aggregate accepted")
	}
}

func TestRunWithStats(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "facts.csv")
	snapPath := filepath.Join(dir, "cube.bin")
	facts := "region,product,measure\neast,widget,10\neast,nut,5\nwest,widget,7\n"
	if err := os.WriteFile(csvPath, []byte(facts), 0o644); err != nil {
		t.Fatal(err)
	}
	// Stats route through the query server on a built cube.
	if err := run(csvPath, "measure", 2, "", snapPath, "", "", "region", "product=widget", 0, "sum", true, 0); err != nil {
		t.Fatal(err)
	}
	// On a snapshot there is no cluster: stats degrade gracefully.
	if err := run("", "measure", 2, "", "", snapPath, "", "region", "", 0, "sum", true, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithAdvise(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "facts.csv")
	facts := "region,product,measure\neast,widget,10\neast,nut,5\nwest,widget,7\n"
	if err := os.WriteFile(csvPath, []byte(facts), 0o644); err != nil {
		t.Fatal(err)
	}
	// Minimal cube + a query + advisor steps: the demand mined from the
	// query drives the steps; on this tiny input they may or may not
	// act, but the path must run cleanly.
	if err := run(csvPath, "measure", 2, "region,product", "", "", "", "region", "", 0, "sum", true, 2); err != nil {
		t.Fatal(err)
	}
	// Advise without a query (no demand): steps are no-ops but legal.
	if err := run(csvPath, "measure", 2, "", "", "", "", "", "", 0, "sum", false, 1); err != nil {
		t.Fatal(err)
	}
	// Snapshot loads rebuild the simulated machine, so advising a
	// reloaded cube works too.
	snapPath := filepath.Join(dir, "cube.bin")
	if err := run(csvPath, "measure", 2, "", snapPath, "", "", "", "", 0, "sum", false, 0); err != nil {
		t.Fatal(err)
	}
	if err := run("", "measure", 2, "", "", snapPath, "", "", "", 0, "sum", false, 1); err != nil {
		t.Fatalf("advise on a reloaded cube: %v", err)
	}
}

func TestRunIngestFlag(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "facts.csv")
	snapPath := filepath.Join(dir, "cube.bin")
	batchPath := filepath.Join(dir, "batch.csv")
	facts := "region,product,measure\neast,widget,10\neast,nut,5\nwest,widget,7\n"
	// The batch permutes columns and reuses known dictionary values.
	batch := "product,measure,region\nwidget,70,west\nnut,30,east\n"
	if err := os.WriteFile(csvPath, []byte(facts), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(batchPath, []byte(batch), 0o644); err != nil {
		t.Fatal(err)
	}
	// Build + ingest in one shot, saving the maintained cube.
	if err := run(csvPath, "measure", 2, "", snapPath, "", batchPath, "region", "", 0, "sum", false, 0); err != nil {
		t.Fatal(err)
	}
	// The saved snapshot reflects the batch: ingest again on load.
	if err := run("", "measure", 2, "", "", snapPath, batchPath, "region", "", 0, "sum", false, 0); err != nil {
		t.Fatal(err)
	}
	// A batch naming an unknown dictionary value is rejected.
	badPath := filepath.Join(dir, "bad.csv")
	if err := os.WriteFile(badPath, []byte("region,product,measure\nnorth,widget,1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("", "measure", 2, "", "", snapPath, badPath, "", "", 0, "sum", false, 0); err == nil {
		t.Fatal("unknown dictionary value accepted")
	}
}

func TestParseAgg(t *testing.T) {
	cases := []struct {
		s   string
		agg rolap.Aggregate
		pct float64
	}{
		{"sum", rolap.Sum, 0.5},
		{"min", rolap.Min, 0.5},
		{"COUNT DISTINCT", rolap.CountDistinct, 0.5},
		{"count_distinct", rolap.CountDistinct, 0.5},
		{"distinct", rolap.CountDistinct, 0.5},
		{"median", rolap.Quantile, 0.5},
		{"percentile(0.9)", rolap.Quantile, 0.9},
		{"PERCENTILE(0.25)", rolap.Quantile, 0.25},
	}
	for _, c := range cases {
		agg, pct, err := parseAgg(c.s)
		if err != nil || agg != c.agg || pct != c.pct {
			t.Errorf("parseAgg(%q) = %v, %v, %v; want %v, %v", c.s, agg, pct, err, c.agg, c.pct)
		}
	}
	for _, bad := range []string{"bogus", "percentile(1.5)", "percentile(x)", "percentile(-0.1)"} {
		if _, _, err := parseAgg(bad); err == nil {
			t.Errorf("parseAgg(%q) should fail", bad)
		}
	}
}

// TestRunHolistic drives the CSV-to-CSV path with the holistic query
// forms: COUNT DISTINCT and PERCENTILE(p) build sketch-backed cubes,
// the output header labels estimates, and -stats reports sketch bytes.
func TestRunHolistic(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "facts.csv")
	snapPath := filepath.Join(dir, "cube.bin")
	facts := "region,product,measure\n" +
		"east,widget,10\neast,widget,10\neast,widget,30\n" +
		"east,nut,5\nwest,widget,7\nwest,nut,7\nwest,nut,9\n"
	if err := os.WriteFile(csvPath, []byte(facts), 0o644); err != nil {
		t.Fatal(err)
	}
	capture := func(f func() error) string { return captureFile(t, &os.Stdout, f) }

	// COUNT DISTINCT: east sells measures {10,30,5} -> 3 distinct.
	out := capture(func() error {
		return run(csvPath, "measure", 2, "", snapPath, "", "", "region", "", 0, "count distinct", true, 0)
	})
	if !strings.Contains(out, "measure_estimate") {
		t.Fatalf("distinct output not labeled as estimate:\n%s", out)
	}
	if !strings.Contains(out, "east,3") || !strings.Contains(out, "west,2") {
		t.Fatalf("wrong distinct counts:\n%s", out)
	}

	// The saved snapshot serves the same estimates after reload.
	out = capture(func() error {
		return run("", "measure", 2, "", "", snapPath, "", "region", "", 0, "count distinct", false, 0)
	})
	if !strings.Contains(out, "measure_estimate") {
		t.Fatalf("snapshot output not labeled:\n%s", out)
	}

	// PERCENTILE: east values sorted {5,10,10,30}; p=1 -> 30, median -> 10.
	out = capture(func() error {
		return run(csvPath, "measure", 2, "", "", "", "", "region", "", 0, "percentile(1)", false, 0)
	})
	if !strings.Contains(out, "east,30") {
		t.Fatalf("wrong max percentile:\n%s", out)
	}
	out = capture(func() error {
		return run(csvPath, "measure", 2, "", "", "", "", "region", "", 0, "median", false, 0)
	})
	if !strings.Contains(out, "east,10") {
		t.Fatalf("wrong median:\n%s", out)
	}
}

// captureFile runs f with *target (os.Stdout or os.Stderr) redirected
// into a pipe and returns what f wrote there; f must succeed.
func captureFile(t *testing.T, target **os.File, f func() error) string {
	t.Helper()
	old := *target
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	*target = w
	errRun := f()
	w.Close()
	*target = old
	out := make([]byte, 1<<16)
	n, _ := r.Read(out)
	r.Close()
	if errRun != nil {
		t.Fatal(errRun)
	}
	return string(out[:n])
}

// TestRunPercentileStats: -stats must report the query's cost and the
// per-view demand table for a non-median rank too — the rank travels in
// the Query, it is not a separate entry point that bypasses the server.
func TestRunPercentileStats(t *testing.T) {
	csvPath := filepath.Join(t.TempDir(), "facts.csv")
	facts := "region,product,measure\n" +
		"east,widget,10\neast,widget,10\neast,widget,30\neast,nut,5\nwest,widget,7\n"
	if err := os.WriteFile(csvPath, []byte(facts), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout string
	stderr := captureFile(t, &os.Stderr, func() error {
		stdout = captureFile(t, &os.Stdout, func() error {
			return run(csvPath, "measure", 2, "", "", "", "", "region", "", 0, "percentile(1)", true, 0)
		})
		return nil
	})
	if !strings.Contains(stdout, "east,30") {
		t.Fatalf("wrong p100:\n%s", stdout)
	}
	for _, want := range []string{"query: source=[region]", "per-view demand:", "[region] hits=1", "storage: stored_bytes="} {
		if !strings.Contains(stderr, want) {
			t.Fatalf("-stats output lacks %q:\n%s", want, stderr)
		}
	}
}
