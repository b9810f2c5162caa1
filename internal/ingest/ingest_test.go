package ingest

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/mergepart"
	"repro/internal/record"
)

// buildBase builds a live cube from rows [0, base) of the generated
// data set, returning the machine and build metrics.
func buildBase(t *testing.T, g *gen.Generator, base, p int, cfg core.Config) (*cluster.Machine, core.Metrics) {
	t.Helper()
	m := cluster.New(p, costmodel.Default())
	for r := 0; r < p; r++ {
		m.Proc(r).Disk().Put("raw", g.Table(r*base/p, (r+1)*base/p))
	}
	met, err := core.BuildCube(m, "raw", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, met
}

// rebuild builds a from-scratch cube on rows [0, n) — the oracle the
// incremental path must match.
func rebuild(t *testing.T, g *gen.Generator, n, p int, cfg core.Config) *cluster.Machine {
	t.Helper()
	m := cluster.New(p, costmodel.Default())
	for r := 0; r < p; r++ {
		m.Proc(r).Disk().Put("raw", g.Table(r*n/p, (r+1)*n/p))
	}
	if _, err := core.BuildCube(m, "raw", cfg); err != nil {
		t.Fatal(err)
	}
	return m
}

// gatherView concatenates a view's slices in rank order — the global
// sorted sequence, which is canonical regardless of where slice
// boundaries fall.
func gatherView(m *cluster.Machine, v lattice.ViewID) *record.Table {
	out := record.New(v.Count(), 0)
	for r := 0; r < m.P(); r++ {
		if tb, ok := m.Proc(r).Disk().Get(core.ViewFile(v)); ok {
			out.AppendTable(tb)
		}
	}
	return out
}

func ingestConfig(cfg core.Config, met core.Metrics) Config {
	return Config{
		D:           cfg.D,
		Selected:    cfg.Selected,
		Orders:      met.ViewOrders,
		Trees:       met.SchedTrees,
		Agg:         cfg.Agg,
		OverlapComm: cfg.OverlapComm,
	}
}

func selectedViews(cfg core.Config) []lattice.ViewID {
	if cfg.Selected != nil {
		return cfg.Selected
	}
	return lattice.AllViews(cfg.D)
}

// checkMatchesRebuild ingests the tail of the data set in the given
// batch splits and asserts every view is byte-identical to a
// from-scratch build on the full data.
func checkMatchesRebuild(t *testing.T, spec gen.Spec, p, base int, splits []int, cfg core.Config) []Result {
	t.Helper()
	g := gen.New(spec)
	m, met := buildBase(t, g, base, p, cfg)
	icfg := ingestConfig(cfg, met)
	var results []Result
	lo := base
	for _, b := range splits {
		res, err := IngestBatch(m, g.Table(lo, lo+b), icfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rows != int64(b) {
			t.Fatalf("batch of %d rows reports %d", b, res.Rows)
		}
		results = append(results, res)
		lo += b
	}
	oracle := rebuild(t, g, lo, p, cfg)
	last := results[len(results)-1]
	for _, v := range selectedViews(cfg) {
		got, want := gatherView(m, v), gatherView(oracle, v)
		if !record.Equal(got, want) {
			t.Fatalf("view %v: incremental result differs from rebuild (%d rows vs %d)", v, got.Len(), want.Len())
		}
		if last.ViewRows[v] != int64(want.Len()) {
			t.Fatalf("view %v: result says %d rows, rebuild has %d", v, last.ViewRows[v], want.Len())
		}
	}
	return results
}

func TestIngestMatchesRebuild(t *testing.T) {
	spec4 := gen.Spec{N: 4200, D: 4, Cards: []int{12, 8, 5, 3}, Seed: 11}
	cases := []struct {
		name   string
		spec   gen.Spec
		p      int
		base   int
		splits []int
		cfg    core.Config
	}{
		{"p1", spec4, 1, 3600, []int{400, 200}, core.Config{D: 4}},
		{"p2", spec4, 2, 3600, []int{400, 200}, core.Config{D: 4}},
		{"p4", spec4, 4, 3600, []int{300, 300}, core.Config{D: 4}},
		{"uneven-splits", spec4, 3, 3600, []int{17, 583}, core.Config{D: 4}},
		{"skewed", gen.Spec{N: 4000, D: 3, Cards: []int{16, 9, 4}, Skews: []float64{1.4, 1.4, 1.4}, Seed: 5},
			3, 3400, []int{300, 300}, core.Config{D: 3}},
		{"overlap-comm", spec4, 4, 3600, []int{400, 200}, core.Config{D: 4, OverlapComm: true}},
		{"local-trees", gen.Spec{N: 3000, D: 3, Cards: []int{10, 7, 4}, Seed: 9},
			2, 2500, []int{250, 250}, core.Config{D: 3, Schedule: core.LocalTree}},
		{"op-max", gen.Spec{N: 3000, D: 3, Cards: []int{10, 7, 4}, Seed: 13},
			2, 2500, []int{500}, core.Config{D: 3, Agg: record.OpMax}},
		{"partial-cube", spec4, 3, 3600, []int{400, 200}, core.Config{D: 4,
			Selected: []lattice.ViewID{
				lattice.Root(0, 4),           // a root (prefix merge)
				lattice.Root(0, 4).Remove(3), // prefix of that root
				lattice.Root(0, 4).Remove(1), // non-prefix
				lattice.Root(2, 4),           // second partition
				lattice.ViewID(0),            // grand total
			}}},
		{"partial-no-root", spec4, 2, 3600, []int{300}, core.Config{D: 4,
			Selected: []lattice.ViewID{
				lattice.Root(0, 4).Remove(3),
				lattice.Root(0, 4).Remove(1),
			}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results := checkMatchesRebuild(t, tc.spec, tc.p, tc.base, tc.splits, tc.cfg)
			for k, res := range results {
				if res.SimSeconds <= 0 {
					t.Fatalf("batch %d: no simulated time charged", k)
				}
				if res.DeltaMergeSeconds <= 0 {
					t.Fatalf("batch %d: delta merge not charged", k)
				}
				if len(res.Changed) == 0 {
					t.Fatalf("batch %d: no views marked changed", k)
				}
				if tc.p > 1 && res.BytesMoved <= 0 {
					t.Fatalf("batch %d: no communication charged at p=%d", k, tc.p)
				}
			}
		})
	}
}

func TestIngestCaseCoverage(t *testing.T) {
	// A full cube at p=4 must exercise the Case 1 prefix merge (the
	// roots and their scan chains) and the Case 2 overlap exchange
	// (non-prefix views) in the same batch.
	spec := gen.Spec{N: 4200, D: 4, Cards: []int{12, 8, 5, 3}, Seed: 21}
	results := checkMatchesRebuild(t, spec, 4, 3800, []int{400}, core.Config{D: 4})
	cc := results[0].CaseCounts
	if cc[mergepart.CasePrefix] == 0 {
		t.Fatalf("no Case 1 prefix merges: %v", cc)
	}
	if cc[mergepart.CaseOverlap]+cc[mergepart.CaseGlobalSort] == 0 {
		t.Fatalf("no Case 2/3 merges: %v", cc)
	}
	total := 0
	for _, n := range cc {
		total += n
	}
	if total != len(lattice.AllViews(4)) {
		t.Fatalf("merged %d views, want %d: %v", total, len(lattice.AllViews(4)), cc)
	}
}

func TestIngestEmptyBatch(t *testing.T) {
	g := gen.New(gen.Spec{N: 2000, D: 3, Cards: []int{8, 5, 3}, Seed: 3})
	cfg := core.Config{D: 3}
	m, met := buildBase(t, g, 2000, 2, cfg)
	before := map[lattice.ViewID]*record.Table{}
	for _, v := range lattice.AllViews(3) {
		before[v] = gatherView(m, v)
	}
	res, err := IngestBatch(m, record.New(3, 0), ingestConfig(cfg, met))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Changed) != 0 {
		t.Fatalf("empty batch changed views: %v", res.Changed)
	}
	for _, v := range lattice.AllViews(3) {
		if !record.Equal(gatherView(m, v), before[v]) {
			t.Fatalf("empty batch modified view %v", v)
		}
	}
	checkNoBatchState(t, m)
}

// checkNoBatchState asserts no in-flight ingest files remain.
func checkNoBatchState(t *testing.T, m *cluster.Machine) {
	t.Helper()
	for r := 0; r < m.P(); r++ {
		for _, f := range m.Proc(r).Disk().Files() {
			if len(f) >= 7 && f[:7] == "ingest." {
				t.Fatalf("rank %d: leftover batch state %q", r, f)
			}
		}
	}
}

// TestIngestSortPathDeterminism is the ingest-level guard for the two
// sort/merge paths, which key width selects: the same base cube and
// batches are applied as generated (packable keys: radix sorts,
// loser-tree merges) and with the top bit of every value set (an
// order-preserving shift to 32 bits per column: comparison sorts and
// heap merges for every view of five or six dimensions). Both must
// change the same views and leave the same contents once the shift is
// undone. (Simulated charges are not comparable across the two — wider
// values change modelled byte sizes; extsort's tests assert their path
// independence.)
func TestIngestSortPathDeterminism(t *testing.T) {
	const top = uint32(1) << 31
	spec := gen.Spec{N: 3600, D: 6, Cards: []int{12, 8, 5, 3, 3, 2}, Seed: 17}
	cfg := core.Config{D: spec.D}
	run := func(wide bool) ([]map[lattice.ViewID]bool, map[lattice.ViewID]*record.Table) {
		g := gen.New(spec)
		table := func(lo, hi int) *record.Table {
			tb := g.Table(lo, hi)
			if wide {
				for i := 0; i < tb.Len(); i++ {
					for j, v := range tb.Row(i) {
						tb.Row(i)[j] = v | top
					}
				}
			}
			return tb
		}
		const base, p = 3000, 3
		m := cluster.New(p, costmodel.Default())
		for r := 0; r < p; r++ {
			m.Proc(r).Disk().Put("raw", table(r*base/p, (r+1)*base/p))
		}
		met, err := core.BuildCube(m, "raw", cfg)
		if err != nil {
			t.Fatal(err)
		}
		icfg := ingestConfig(cfg, met)
		var changed []map[lattice.ViewID]bool
		for _, span := range [][2]int{{3000, 3400}, {3400, 3600}} {
			res, err := IngestBatch(m, table(span[0], span[1]), icfg)
			if err != nil {
				t.Fatal(err)
			}
			changed = append(changed, res.Changed)
		}
		views := map[lattice.ViewID]*record.Table{}
		for _, v := range lattice.AllViews(spec.D) {
			views[v] = gatherView(m, v)
		}
		return changed, views
	}
	narrowChanged, narrowViews := run(false)
	wideChanged, wideViews := run(true)
	if !reflect.DeepEqual(narrowChanged, wideChanged) {
		t.Fatalf("changed views differ between sort paths:\nradix:      %v\ncomparison: %v", narrowChanged, wideChanged)
	}
	unpackable := 0
	for v, narrow := range narrowViews {
		wide := wideViews[v]
		if !record.MeasureKeyPlan(wide).Packable() {
			unpackable++
		}
		for i := 0; i < wide.Len(); i++ {
			for j, x := range wide.Row(i) {
				wide.Row(i)[j] = x &^ top
			}
		}
		if !record.Equal(narrow, wide) {
			t.Fatalf("view %v differs between sort paths", v)
		}
	}
	if unpackable == 0 {
		t.Fatal("test premise broken: no view of the wide run is on the comparison path")
	}
}

// TestIngestCrashRecoversPreBatch injects a crash in the middle of a
// delta merge and asserts the cube recovers to its exact pre-batch
// contents, then accepts the same batch cleanly.
func TestIngestCrashRecoversPreBatch(t *testing.T) {
	g := gen.New(gen.Spec{N: 3400, D: 4, Cards: []int{12, 8, 5, 3}, Seed: 23})
	cfg := core.Config{D: 4}
	m, met := buildBase(t, g, 3000, 3, cfg)
	before := map[lattice.ViewID]*record.Table{}
	for _, v := range lattice.AllViews(4) {
		before[v] = gatherView(m, v)
	}
	icfg := ingestConfig(cfg, met)
	icfg.Faults = &faults.Plan{Crashes: []faults.Crash{
		{Rank: 1, Dimension: 2, Phase: PhaseDeltaMerge},
	}}
	_, err := IngestBatch(m, g.Table(3000, 3400), icfg)
	var crash *faults.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("want *faults.CrashError, got %v", err)
	}
	if crash.Phase != PhaseDeltaMerge || crash.Rank != 1 {
		t.Fatalf("crash fired at the wrong point: %+v", crash)
	}
	for _, v := range lattice.AllViews(4) {
		if !record.Equal(gatherView(m, v), before[v]) {
			t.Fatalf("view %v is not at its pre-batch contents after crash", v)
		}
	}
	checkNoBatchState(t, m)

	// The machine stays usable: the same batch applies cleanly once the
	// fault plan is gone, and matches the rebuild oracle.
	icfg.Faults = nil
	if _, err := IngestBatch(m, g.Table(3000, 3400), icfg); err != nil {
		t.Fatal(err)
	}
	oracle := rebuild(t, g, 3400, 3, cfg)
	for _, v := range lattice.AllViews(4) {
		if !record.Equal(gatherView(m, v), gatherView(oracle, v)) {
			t.Fatalf("view %v differs from rebuild after crash + retry", v)
		}
	}
}

// TestIngestCrashAtCommitBarrier crashes at the final deltamerge
// supersteps (the commit barrier region) and asserts atomicity: either
// nothing changed or — past the barrier — everything committed. Before
// the barrier no rename may have happened.
func TestIngestCrashAtCommitBarrier(t *testing.T) {
	g := gen.New(gen.Spec{N: 2300, D: 3, Cards: []int{8, 5, 3}, Seed: 29})
	cfg := core.Config{D: 3}
	m, met := buildBase(t, g, 2000, 2, cfg)
	before := map[lattice.ViewID]*record.Table{}
	for _, v := range lattice.AllViews(3) {
		before[v] = gatherView(m, v)
	}
	// Last dimension, deltamerge phase: the nearest injection point to
	// the commit barrier a plan can name.
	icfg := ingestConfig(cfg, met)
	icfg.Faults = &faults.Plan{Crashes: []faults.Crash{
		{Rank: 0, Dimension: 2, Phase: PhaseDeltaMerge},
	}}
	_, err := IngestBatch(m, g.Table(2000, 2300), icfg)
	var crash *faults.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("want *faults.CrashError, got %v", err)
	}
	for _, v := range lattice.AllViews(3) {
		if !record.Equal(gatherView(m, v), before[v]) {
			t.Fatalf("crash before commit leaked into view %v", v)
		}
	}
	checkNoBatchState(t, m)
}

func TestIngestValidation(t *testing.T) {
	g := gen.New(gen.Spec{N: 1000, D: 3, Cards: []int{8, 5, 3}, Seed: 1})
	cfg := core.Config{D: 3}
	m, met := buildBase(t, g, 1000, 2, cfg)
	good := ingestConfig(cfg, met)

	if _, err := IngestBatch(m, nil, good); err == nil {
		t.Fatal("nil batch accepted")
	}
	if _, err := IngestBatch(m, record.New(2, 0), good); err == nil {
		t.Fatal("wrong batch arity accepted")
	}
	bad := good
	bad.Orders = map[lattice.ViewID]lattice.Order{}
	if _, err := IngestBatch(m, record.New(3, 0), bad); err == nil {
		t.Fatal("missing orders accepted")
	}
	bad = good
	bad.Gamma = 2
	if _, err := IngestBatch(m, record.New(3, 0), bad); err == nil {
		t.Fatal("bad gamma accepted")
	}
	bad = good
	bad.Faults = &faults.Plan{Crashes: []faults.Crash{{Rank: 99, Dimension: -1}}}
	if _, err := IngestBatch(m, record.New(3, 0), bad); err == nil {
		t.Fatal("fault plan for the wrong machine size accepted")
	}
}

func TestDeltaTreeValidates(t *testing.T) {
	// The fallback schedule tree must validate for full partitions and
	// assorted partial selections, with canonical orders standing in
	// for the live cube's.
	for _, d := range []int{2, 3, 4, 6} {
		orders := map[lattice.ViewID]lattice.Order{}
		for _, v := range lattice.AllViews(d) {
			orders[v] = lattice.Canonical(v)
		}
		for i := 0; i < d; i++ {
			full := lattice.PartitionSubset(i, d, lattice.AllViews(d))
			if len(full) == 0 {
				continue
			}
			tr := deltaTree(d, i, full, orders)
			if err := tr.Validate(); err != nil {
				t.Fatalf("d=%d i=%d full partition: %v", d, i, err)
			}
			// Every partition view must be materializable from the tree
			// in its agreed order.
			for _, v := range full {
				n := tr.Node(v)
				if n == nil {
					t.Fatalf("d=%d i=%d: view %v missing from tree", d, i, v)
				}
				if !n.Order.Equal(orders[v]) {
					t.Fatalf("d=%d i=%d view %v: tree order %v, live order %v", d, i, v, n.Order, orders[v])
				}
			}
			// A sparse selection (every other view) must also validate.
			var sparse []lattice.ViewID
			for k, v := range full {
				if k%2 == 0 {
					sparse = append(sparse, v)
				}
			}
			tr = deltaTree(d, i, sparse, orders)
			if err := tr.Validate(); err != nil {
				t.Fatalf("d=%d i=%d sparse partition: %v", d, i, err)
			}
		}
	}
}

// TestResultAccounting checks one batch's Result against the machine
// it ran on: the per-view figures are what the disks hold, and the
// phase split adds up.
func TestResultAccounting(t *testing.T) {
	spec := gen.Spec{N: 3000, D: 3, Cards: []int{10, 7, 4}, Seed: 17}
	g := gen.New(spec)
	cfg := core.Config{D: 3}
	m, met := buildBase(t, g, 2500, 3, cfg)
	st0 := m.Stats()
	res, err := IngestBatch(m, g.Table(2500, 3000), ingestConfig(cfg, met))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows != 500 || res.P != 3 {
		t.Fatalf("batch shape wrong: %+v", res)
	}
	if res.DeltaMergeSeconds != res.PhaseSeconds[PhaseDeltaMerge] || res.PhaseSeconds[PhaseIngest] <= 0 {
		t.Fatalf("phase seconds wrong: %+v", res.PhaseSeconds)
	}
	if got := m.Stats().BytesMoved - st0.BytesMoved; res.BytesMoved != got || res.DeltaMergeBytes <= 0 || res.DeltaMergeBytes > got {
		t.Fatalf("bytes wrong: moved %d, deltamerge %d, machine says %d", res.BytesMoved, res.DeltaMergeBytes, got)
	}
	merged := 0
	for _, n := range res.CaseCounts {
		merged += n
	}
	if merged != len(res.Changed) {
		t.Fatalf("%d merge cases for %d changed views", merged, len(res.Changed))
	}
	for _, v := range lattice.AllViews(3) {
		var rows int64
		for r := 0; r < m.P(); r++ {
			rows += int64(m.Proc(r).Disk().Len(core.ViewFile(v)))
		}
		if res.ViewRows[v] != rows {
			t.Fatalf("view %v: result says %d rows, disks hold %d", v, res.ViewRows[v], rows)
		}
	}
}
