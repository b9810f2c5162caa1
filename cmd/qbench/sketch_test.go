package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunSketch runs the full three-arm experiment at a reduced scale
// and checks the gates and the report shape.
func TestRunSketch(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "sketch.json")
	cfg := config{rows: 8000, seed: 7, out: out}
	var buf bytes.Buffer
	if err := runSketch(cfg, &buf); err != nil {
		t.Fatalf("runSketch: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "sketch gates passed") {
		t.Fatalf("gates not reported as passed:\n%s", buf.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep sketchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Pass {
		t.Fatalf("report not passing: %+v", rep)
	}
	if len(rep.Distinct) != 4 || len(rep.Quantile) != 6 {
		t.Fatalf("unexpected report shape: %d distinct, %d quantile rows", len(rep.Distinct), len(rep.Quantile))
	}
	for _, d := range rep.Distinct {
		if d.MaxRelErr > rep.Bound {
			t.Fatalf("distinct card %d rel err %v over bound", d.Cardinality, d.MaxRelErr)
		}
	}
	for _, q := range rep.Quantile {
		if q.MaxRelErr > rep.Bound {
			t.Fatalf("quantile rank %v rel err %v over bound", q.Rank, q.MaxRelErr)
		}
	}
	if rep.BuildCost.DistinctSketchBytes <= 0 || rep.BuildCost.QuantileSketchBytes <= 0 {
		t.Fatalf("missing sketch storage cost: %+v", rep.BuildCost)
	}
}
