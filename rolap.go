// Package rolap is a parallel ROLAP data-cube construction library for
// shared-nothing clusters, reproducing Chen, Dehne, Eavis and
// Rau-Chaplin, "Parallel ROLAP Data Cube Construction On Shared-Nothing
// Multiprocessors" (IPDPS 2003).
//
// The library materializes all 2^d group-by views of a d-dimensional
// fact table (or a selected subset — a partial cube) as relational
// tables distributed over the local disks of a simulated shared-nothing
// multiprocessor. The algorithm partitions the lattice into
// Di-partitions, globally sorts each partition root with an adaptive
// parallel sample sort, builds every partition locally with Pipesort,
// and merges the per-processor view slices with the three-case
// Merge–Partitions procedure. Options.OverlapComm additionally enables
// the paper's §4.1 communication–computation overlap, masking part of
// the h-relation cost behind the local work that follows each
// exchange. See DESIGN.md for the full system map.
//
// Quick start:
//
//	schema := rolap.Schema{Dimensions: []rolap.Dimension{
//		{Name: "store", Cardinality: 64},
//		{Name: "product", Cardinality: 32},
//		{Name: "month", Cardinality: 12},
//	}}
//	in, _ := rolap.NewInput(schema)
//	in.AddRow([]uint32{3, 17, 5}, 120) // store 3 sold product 17 in June for $120
//	cube, _ := rolap.Build(in, rolap.Options{Processors: 4})
//	total, _ := cube.Aggregate([]string{"store", "month"}, []uint32{3, 5})
package rolap

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/partialcube"
	"repro/internal/queryengine"
	"repro/internal/record"
)

// Dimension is one dimension of the fact table. Values of the
// dimension must be dense codes in [0, Cardinality).
type Dimension struct {
	Name        string
	Cardinality int
}

// Schema describes the fact table's dimensions, in the user's
// preferred order. Internally the library re-orders dimensions by
// decreasing cardinality (the paper's w.l.o.g. assumption); all public
// APIs speak in dimension names, so callers never see the internal
// order.
type Schema struct {
	Dimensions []Dimension
}

// validate checks the schema and returns the canonical permutation:
// perm[i] is the user-dimension index of internal dimension i.
func (s Schema) validate() ([]int, error) {
	d := len(s.Dimensions)
	if d < 1 || d > lattice.MaxDims {
		return nil, fmt.Errorf("rolap: schema needs 1..%d dimensions, has %d", lattice.MaxDims, d)
	}
	seen := map[string]bool{}
	for _, dim := range s.Dimensions {
		if dim.Name == "" {
			return nil, fmt.Errorf("rolap: dimension with empty name")
		}
		if dim.Cardinality < 1 {
			return nil, fmt.Errorf("rolap: dimension %q has cardinality %d", dim.Name, dim.Cardinality)
		}
		if seen[dim.Name] {
			return nil, fmt.Errorf("rolap: duplicate dimension %q", dim.Name)
		}
		seen[dim.Name] = true
	}
	perm := make([]int, d)
	for i := range perm {
		perm[i] = i
	}
	sort.SliceStable(perm, func(a, b int) bool {
		return s.Dimensions[perm[a]].Cardinality > s.Dimensions[perm[b]].Cardinality
	})
	return perm, nil
}

// Input is a fact table being loaded. Rows are given in schema order;
// the measure is any additive int64 (use 1 for COUNT semantics).
type Input struct {
	schema Schema
	perm   []int // internal dim i -> user dim perm[i]
	inv    []int // user dim u -> internal dim inv[u]
	table  *record.Table
	// dicts, when non-nil, maps each user dimension's codes back to
	// the original string values (populated by LoadCSV).
	dicts [][]string
}

// NewInput returns an empty fact table for the schema.
func NewInput(schema Schema) (*Input, error) {
	perm, err := schema.validate()
	if err != nil {
		return nil, err
	}
	inv := make([]int, len(perm))
	for i, u := range perm {
		inv[u] = i
	}
	return &Input{
		schema: schema,
		perm:   perm,
		inv:    inv,
		table:  record.New(len(schema.Dimensions), 0),
	}, nil
}

// AddRow appends one fact. values are dimension codes in schema order.
func (in *Input) AddRow(values []uint32, measure int64) error {
	if len(values) != len(in.schema.Dimensions) {
		return fmt.Errorf("rolap: row has %d values, schema has %d dimensions",
			len(values), len(in.schema.Dimensions))
	}
	row := make([]uint32, len(values))
	for i, u := range in.perm {
		v := values[u]
		if int(v) >= in.schema.Dimensions[u].Cardinality {
			return fmt.Errorf("rolap: value %d out of range for dimension %q (cardinality %d)",
				v, in.schema.Dimensions[u].Name, in.schema.Dimensions[u].Cardinality)
		}
		row[i] = v
	}
	in.table.Append(row, measure)
	return nil
}

// Len returns the number of loaded facts.
func (in *Input) Len() int { return in.table.Len() }

// Schema returns the input's schema.
func (in *Input) Schema() Schema { return in.schema }

// Aggregate selects how measures of equal group keys combine.
type Aggregate int

const (
	// Sum adds measures (COUNT is Sum over unit measures; AVG is a Sum
	// cube divided by a COUNT cube).
	Sum Aggregate = iota
	// Min keeps the smallest measure per group.
	Min
	// Max keeps the largest measure per group.
	Max
	// CountDistinct estimates the number of distinct measure values per
	// group with a mergeable sketch (exact below the sketch's exact
	// threshold, Flajolet–Martin beyond it). Holistic: measures must be
	// non-negative, and query results are estimates.
	CountDistinct
	// Quantile tracks the distribution of measure values per group with
	// a mergeable log-quantized histogram; Query.Percentile picks the
	// rank to report (the median when unset). Holistic: measures must be
	// non-negative, and query results are estimates.
	Quantile
)

func (a Aggregate) op() record.AggOp {
	switch a {
	case Min:
		return record.OpMin
	case Max:
		return record.OpMax
	case CountDistinct:
		return record.OpDistinct
	case Quantile:
		return record.OpQuantile
	default:
		return record.OpSum
	}
}

// Holistic reports whether the aggregate needs per-group sketch state
// (its results are estimates, not exact values).
func (a Aggregate) Holistic() bool { return a.op().Holistic() }

// Holistic reports whether the cube's aggregate is sketch-backed
// (CountDistinct or Quantile): every measure it serves is an estimate.
func (c *Cube) Holistic() bool { return c.op.Holistic() }

// Hardware selects the cost model of the simulated cluster.
type Hardware int

const (
	// Beowulf2003 models the paper's platform: 1.8 GHz Xeons, IDE
	// disks, 100 Mb/s Ethernet.
	Beowulf2003 Hardware = iota
	// ModernCluster models NVMe storage and 10 GbE.
	ModernCluster
)

// params returns the hardware's cost model.
func (h Hardware) params() costmodel.Params {
	if h == ModernCluster {
		return costmodel.Modern()
	}
	return costmodel.Default()
}

// Options configures a cube build.
type Options struct {
	// Processors is the shared-nothing machine size (default 4).
	Processors int
	// SelectedViews restricts materialization to the named views (each
	// a set of dimension names); nil builds the full cube. The empty
	// set (the grand total) is written as an empty name list.
	SelectedViews [][]string
	// Gamma is the sample-sort rebalance threshold (default 1%).
	Gamma float64
	// MergeGamma is the merge Case 2/3 threshold (default 3%).
	MergeGamma float64
	// LocalScheduleTrees switches to per-processor schedule trees (the
	// paper's slower baseline; for experiments).
	LocalScheduleTrees bool
	// GreedyPartialPlanner switches the partial-cube planner from
	// pruned-Pipesort to the direct greedy lattice planner.
	GreedyPartialPlanner bool
	// FlajoletMartin switches view-size estimation from the Cardenas
	// formula to Flajolet–Martin sketches.
	FlajoletMartin bool
	// Aggregate selects the measure combiner (default Sum).
	Aggregate Aggregate
	// MinSupport, when > 0, builds an iceberg cube: only groups whose
	// aggregate reaches the threshold are materialized.
	MinSupport int64
	// Hardware selects the simulated cluster's cost model.
	Hardware Hardware
	// OverlapComm enables the paper's §4.1 communication–computation
	// overlap: the bulk h-relations of the partition and merge phases
	// are posted asynchronously and run concurrently with the local
	// sort/merge/disk work that follows, with the unmasked remainder
	// settled at the next barrier. The build's result is bit-identical;
	// only the simulated timing changes, by at most the build's
	// Metrics.MaskableCommFraction. Metrics.OverlappedCommSeconds
	// reports how much communication was actually masked.
	OverlapComm bool
	// Faults, when non-nil, injects deterministic failures into the
	// build: crashes, dropped/corrupted h-relation payloads, and
	// stragglers. An unrecoverable crash returns a *FailedBuildError.
	Faults *FaultPlan
	// Checkpoint enables per-dimension checkpointing so a crashed
	// build continues degraded on the surviving processors instead of
	// failing. Checkpoint I/O and recovery time are charged on the
	// simulated clock and reported in Metrics.
	Checkpoint Checkpoint
}

// Cube is a materialized (partial) data cube distributed over the
// processors of a shared-nothing machine.
type Cube struct {
	in      *Input
	machine *cluster.Machine
	metrics Metrics
	op      record.AggOp
	// engine serves every query where the slices live; Build and
	// LoadCube both wire it. Its Topology is the cube's one record of
	// the materialized view set: which views are live, their orders,
	// row counts and versions.
	engine *queryengine.Engine

	// opts keeps the build configuration so incremental batches reuse
	// the same thresholds, overlap mode, and aggregate operator.
	opts Options
	// trees holds the retained per-dimension schedule trees from a
	// global-tree build; ingest falls back to a deterministic schedule
	// derived from the view orders when absent (local-tree builds and
	// loaded snapshots). Guarded by ingMu.
	trees map[int]*lattice.Tree

	// pending buffers appended facts (internal dimension order) until
	// the next flush; ingMu serializes buffer access and flushes.
	pending *record.Table
	ingMu   sync.Mutex
	// commitHooks are called after every successfully applied batch,
	// in registration order, with ingMu held — so hooks observe batches
	// in exactly commit order. The replica tier's delta shipping taps
	// in here.
	commitHooks map[int]func(rows [][]uint32, meas []int64)
	nextHookID  int
	// ingestFaults is a one-shot fault plan consumed by the next flush.
	ingestFaults *faults.Plan
	// metMu guards metrics, which ingest updates in place.
	metMu sync.RWMutex
}

// negativeHolistic is why Build and Ingest reject a negative fact of a
// holistic cube: the sketches take measure values as unsigned
// magnitudes, so a negative value would land in the wrong bucket or
// count as a huge one.
const negativeHolistic = "holistic aggregates require non-negative measures (the sketches read values as unsigned magnitudes)"

// maxProcessors bounds the simulated machine size Build and LoadCube
// accept.
const maxProcessors = 1024

// Build runs the parallel shared-nothing cube construction and returns
// the distributed cube. Build never panics on bad configuration or
// internal failure: configuration is validated up front and residual
// panics from the simulated cluster are recovered into errors.
func Build(in *Input, opts Options) (_ *Cube, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rolap: internal failure: %v", r)
		}
	}()
	if in == nil {
		return nil, fmt.Errorf("rolap: nil input")
	}
	p := opts.Processors
	if p == 0 {
		p = 4
	}
	if p < 1 || p > maxProcessors {
		return nil, fmt.Errorf("rolap: processor count %d out of range", p)
	}
	d := len(in.schema.Dimensions)

	var selected []lattice.ViewID
	if opts.SelectedViews != nil {
		seen := map[lattice.ViewID]bool{}
		for _, names := range opts.SelectedViews {
			v, err := in.viewOf(names)
			if err != nil {
				return nil, err
			}
			if !seen[v] {
				seen[v] = true
				selected = append(selected, v)
			}
		}
		if len(selected) == 0 {
			return nil, fmt.Errorf("rolap: empty view selection")
		}
	}

	if opts.Aggregate.Holistic() {
		if opts.MinSupport > 0 {
			return nil, fmt.Errorf("rolap: iceberg cubes are not supported with holistic aggregates (group state is a sketch, not a comparable total)")
		}
		for i := 0; i < in.table.Len(); i++ {
			if in.table.Meas(i) < 0 {
				return nil, fmt.Errorf("rolap: negative measure %d at fact %d: %s", in.table.Meas(i), i, negativeHolistic)
			}
		}
	}

	m := cluster.New(p, opts.Hardware.params())
	// Distribute the fact table evenly (Figure 2b's input layout).
	n := in.table.Len()
	for r := 0; r < p; r++ {
		lo, hi := r*n/p, (r+1)*n/p
		m.Proc(r).Disk().Put("raw", in.table.Sub(lo, hi))
	}

	cfg := core.Config{
		D:           d,
		Selected:    selected,
		Gamma:       opts.Gamma,
		MergeGamma:  opts.MergeGamma,
		Agg:         opts.Aggregate.op(),
		Cards:       in.cards(),
		MinSupport:  opts.MinSupport,
		OverlapComm: opts.OverlapComm,
		Faults:      opts.Faults.internal(),
		Checkpoint: core.CheckpointConfig{
			Enabled:       opts.Checkpoint.Enabled,
			Interval:      opts.Checkpoint.Interval,
			DetectSeconds: opts.Checkpoint.DetectSeconds,
		},
	}
	if opts.LocalScheduleTrees {
		cfg.Schedule = core.LocalTree
	}
	if opts.GreedyPartialPlanner {
		cfg.Partial = partialcube.Greedy
	}
	if opts.FlajoletMartin {
		cfg.Estimator = core.FMEstimator
	}
	met, err := core.BuildCube(m, "raw", cfg)
	if err != nil {
		var crash *faults.CrashError
		if errors.As(err, &crash) {
			return nil, &FailedBuildError{
				Processor: crash.Rank,
				Dimension: crash.Dimension,
				Phase:     crash.Phase,
				Superstep: crash.Superstep,
			}
		}
		return nil, err
	}

	// The build is done: clear any injected fault plan (and straggler
	// slowdowns) so it cannot fire during query supersteps.
	m.SetFaults(nil)
	opts.Processors = p
	engine := queryengine.New(m, met.ViewOrders, met.ViewRows, opts.Aggregate.op())
	return &Cube{
		in:      in,
		machine: m,
		metrics: publicMetrics(in, met),
		op:      opts.Aggregate.op(),
		engine:  engine,
		opts:    opts,
		trees:   met.SchedTrees,
		pending: record.New(d, 0),
	}, nil
}

// cards returns the dimension cardinalities in internal order. They
// drive caller-supplied key plans in the external sorts (denser codes
// mean narrower plans, so more shapes fit the <=128-bit packed radix
// window) and the advisor's view-size estimates.
func (in *Input) cards() []int {
	cards := make([]int, len(in.perm))
	for i, u := range in.perm {
		cards[i] = in.schema.Dimensions[u].Cardinality
	}
	return cards
}

// dimOf translates one user dimension name into its internal dimension.
func (in *Input) dimOf(name string) (int, error) {
	for u, dim := range in.schema.Dimensions {
		if dim.Name == name {
			return in.inv[u], nil
		}
	}
	return 0, fmt.Errorf("rolap: unknown dimension %q", name)
}

// orderOf translates user dimension names into internal dimensions, in
// the order given, rejecting unknown and repeated names.
func (in *Input) orderOf(names []string) (lattice.Order, error) {
	o := make(lattice.Order, len(names))
	seen := lattice.Empty
	for k, name := range names {
		i, err := in.dimOf(name)
		if err != nil {
			return nil, err
		}
		if seen.Has(i) {
			return nil, fmt.Errorf("rolap: dimension %q repeated in view", name)
		}
		seen = seen.Add(i)
		o[k] = i
	}
	return o, nil
}

// viewOf translates a set of user dimension names into a ViewID.
func (in *Input) viewOf(names []string) (lattice.ViewID, error) {
	o, err := in.orderOf(names)
	return o.View(), err
}

// namesOf renders an internal order as user dimension names.
func (in *Input) namesOf(o lattice.Order) []string {
	out := make([]string, len(o))
	for k, i := range o {
		out[k] = in.schema.Dimensions[in.perm[i]].Name
	}
	return out
}
