package main

import (
	"math/rand"
	"strings"
	"testing"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func TestRunSmallSweep(t *testing.T) {
	var sb strings.Builder
	cfg := config{
		rows:    1500,
		procs:   []int{1, 2},
		queries: 30,
		workers: 4,
		cache:   64,
		seed:    7,
	}
	if err := run(cfg, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "q/sim_s") {
		t.Fatalf("missing table header:\n%s", out)
	}
	// One line per sweep point plus banner and header.
	if lines := strings.Count(strings.TrimSpace(out), "\n"); lines != 3 {
		t.Fatalf("unexpected output shape (%d newlines):\n%s", lines, out)
	}
}

func TestRunReplicaSweep(t *testing.T) {
	var sb strings.Builder
	cfg := config{
		rows:       1500,
		queries:    30,
		workers:    4,
		cache:      64,
		seed:       7,
		replicas:   []int{1, 2},
		leaderP:    2,
		maxLag:     4,
		snapEvery:  2,
		ingBatches: 2,
		ingRows:    50,
	}
	if err := runReplicas(cfg, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "speedup") {
		t.Fatalf("missing table header:\n%s", out)
	}
	// Banner, header, one line per replica count.
	if lines := strings.Count(strings.TrimSpace(out), "\n"); lines != 3 {
		t.Fatalf("unexpected output shape (%d newlines):\n%s", lines, out)
	}
}

func TestPercentile(t *testing.T) {
	if p := percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty percentile = %v", p)
	}
	s := []float64{1, 2, 3, 4, 5}
	if p := percentile(s, 0.5); p != 3 {
		t.Fatalf("p50 = %v", p)
	}
	if p := percentile(s, 1.0); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
}

func TestMakeWorkloadDeterministic(t *testing.T) {
	cfg := config{queries: 20}
	a := makeWorkload(cfg, newRand(3))
	b := makeWorkload(cfg, newRand(3))
	if len(a) != len(b) || len(a) != 20 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if strings.Join(a[i].Group, ",") != strings.Join(b[i].Group, ",") {
			t.Fatalf("workload %d differs across identical seeds", i)
		}
	}
}
