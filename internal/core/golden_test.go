package core_test

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/ingest"
	"repro/internal/lattice"
	"repro/internal/record"
)

// charges is the simulated cost of one schedule run.
type charges struct {
	sim        float64
	bytes      int64
	supersteps int64
}

func (c charges) check(t *testing.T, name string, want charges) {
	t.Helper()
	if math.Abs(c.sim-want.sim) > 1e-9*want.sim || c.bytes != want.bytes || c.supersteps != want.supersteps {
		t.Errorf("%s: charges moved: got {sim: %.15g, bytes: %d, supersteps: %d}, want {sim: %.15g, bytes: %d, supersteps: %d}",
			name, c.sim, c.bytes, c.supersteps, want.sim, want.bytes, want.supersteps)
	}
}

func goldenBuild(t *testing.T, raw *record.Table, p int, cfg core.Config) (*cluster.Machine, core.Metrics) {
	t.Helper()
	m := cluster.New(p, costmodel.Default())
	n := raw.Len()
	for r := 0; r < p; r++ {
		m.Proc(r).Disk().Put("raw", raw.Sub(r*n/p, (r+1)*n/p))
	}
	met, err := core.BuildCube(m, "raw", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, met
}

// TestGoldenCharges pins the simulated charges of the build and ingest
// schedules. The values were captured before the stage functions were
// shared between the schedules: a stage that reorders, adds or drops a
// charged operation moves one of them, and fails here rather than only
// in the benchmark.
func TestGoldenCharges(t *testing.T) {
	spec := gen.Spec{N: 4200, D: 4, Cards: []int{12, 8, 5, 3}, Seed: 11}
	g := gen.New(spec)

	t.Run("full-d4-p3", func(t *testing.T) {
		_, met := goldenBuild(t, g.Table(0, 3600), 3, core.Config{D: 4})
		charges{met.SimSeconds, met.BytesMoved, met.Supersteps}.check(t, "build",
			charges{goldenFullSim, goldenFullBytes, goldenFullSupersteps})
	})

	t.Run("partial-ingest", func(t *testing.T) {
		cfg := core.Config{D: 4, Cards: spec.Cards, MergeGamma: 0.4, Selected: []lattice.ViewID{
			lattice.Root(0, 4),
			lattice.Root(0, 4).Remove(3),
			lattice.Root(0, 4).Remove(1),
			lattice.Root(1, 4),
			lattice.Root(2, 4).Remove(3),
			lattice.Empty,
		}}
		m, met := goldenBuild(t, g.Table(0, 3600), 3, cfg)
		charges{met.SimSeconds, met.BytesMoved, met.Supersteps}.check(t, "build",
			charges{goldenPartialSim, goldenPartialBytes, goldenPartialSupersteps})
		res, err := ingest.IngestBatch(m, g.Table(3600, 4200), ingest.Config{
			D: 4, Selected: cfg.Selected, Orders: met.ViewOrders, Trees: met.SchedTrees, Cards: spec.Cards, MergeGamma: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		charges{res.SimSeconds, res.BytesMoved, res.Supersteps}.check(t, "ingest",
			charges{goldenIngestSim, goldenIngestBytes, goldenIngestSupersteps})
	})

	t.Run("count-distinct", func(t *testing.T) {
		raw := gen.New(gen.Spec{N: 1500, D: 3, Cards: []int{9, 6, 4}, Seed: 23}).All()
		for i := 0; i < raw.Len(); i++ {
			raw.SetMeas(i, int64(i%97))
		}
		m, met := goldenBuild(t, raw, 3, core.Config{D: 3, Agg: record.OpDistinct})
		charges{met.SimSeconds, met.BytesMoved, met.Supersteps}.check(t, "build",
			charges{goldenDistinctSim, goldenDistinctBytes, goldenDistinctSupersteps})
		if met.SketchBytes != goldenDistinctSketchBytes {
			t.Errorf("sealed sketch bytes moved: got %d, want %d", met.SketchBytes, goldenDistinctSketchBytes)
		}
		batch := gen.New(gen.Spec{N: 300, D: 3, Cards: []int{9, 6, 4}, Seed: 29}).All()
		for i := 0; i < batch.Len(); i++ {
			batch.SetMeas(i, int64(i*7%97))
		}
		res, err := ingest.IngestBatch(m, batch, ingest.Config{
			D: 3, Orders: met.ViewOrders, Trees: met.SchedTrees, Agg: record.OpDistinct,
		})
		if err != nil {
			t.Fatal(err)
		}
		charges{res.SimSeconds, res.BytesMoved, res.Supersteps}.check(t, "ingest",
			charges{goldenDistinctIngestSim, goldenDistinctIngestBytes, goldenDistinctIngestSupersteps})
	})

	t.Run("quantile", func(t *testing.T) {
		raw := gen.New(gen.Spec{N: 1500, D: 3, Cards: []int{9, 6, 4}, Seed: 23}).All()
		for i := 0; i < raw.Len(); i++ {
			raw.SetMeas(i, int64(i*i%1000))
		}
		_, met := goldenBuild(t, raw, 3, core.Config{D: 3, Agg: record.OpQuantile})
		charges{met.SimSeconds, met.BytesMoved, met.Supersteps}.check(t, "build",
			charges{goldenQuantileSim, goldenQuantileBytes, goldenQuantileSupersteps})
		if met.SketchBytes != goldenQuantileSketchBytes {
			t.Errorf("sealed sketch bytes moved: got %d, want %d", met.SketchBytes, goldenQuantileSketchBytes)
		}
	})
}

const (
	goldenFullSim, goldenFullBytes, goldenFullSupersteps                               = 0.79115947999999703, 48936, 91
	goldenPartialSim, goldenPartialBytes, goldenPartialSupersteps                      = 0.49388883999999894, 40278, 39
	goldenIngestSim, goldenIngestBytes, goldenIngestSupersteps                         = 0.40182951999999755, 12796, 33
	goldenDistinctSim, goldenDistinctBytes, goldenDistinctSupersteps                   = 0.41348707999999951, 73002, 41
	goldenDistinctIngestSim, goldenDistinctIngestBytes, goldenDistinctIngestSupersteps = 0.42659899999999745, 39272, 29
	goldenQuantileSim, goldenQuantileBytes, goldenQuantileSupersteps                   = 0.41458515999999934, 104304, 41
)

// The sealed blobs' total size: the cube's holistic state, which a
// change to where the state is kept must leave byte-for-byte alike.
const goldenDistinctSketchBytes, goldenQuantileSketchBytes = 56542, 76440
