// Package core implements Procedure 1 of the paper,
// Parallel–Shared–Nothing–Data–Cube: for each dimension Di (in
// decreasing cardinality order), (1) partition the data — every
// processor locally aggregates its raw share into its Di-root, the
// union is globally sorted by (Di,...,Dd-1) with Adaptive–Sample–Sort,
// and re-aggregated locally; (2) build the local Di-partition with the
// Pipesort schedule tree planned by P0 and broadcast (or per-processor
// local trees, the §4.2 baseline); (3) merge the p local copies of
// every view with Merge–Partitions. Partial cubes (§3) replace the
// schedule-tree construction with the partial-cube planner and merge
// only the selected views.
package core

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/estimate"
	"repro/internal/faults"
	"repro/internal/lattice"
	"repro/internal/mergepart"
	"repro/internal/partialcube"
	"repro/internal/pipesort"
	"repro/internal/record"
	"repro/internal/samplesort"
	"repro/internal/sketch"
)

// ScheduleMode selects between the paper's global schedule trees
// (P0 plans, everyone follows — the recommended configuration) and
// per-processor local trees (each processor plans from its own data;
// merge must re-sort disagreeing views).
type ScheduleMode int

const (
	// GlobalTree is the paper's method: one tree, broadcast by P0.
	GlobalTree ScheduleMode = iota
	// LocalTree lets each processor plan from its own statistics.
	LocalTree
)

func (s ScheduleMode) String() string {
	if s == LocalTree {
		return "local"
	}
	return "global"
}

// EstimatorKind selects the view-size estimator driving planning.
type EstimatorKind int

const (
	// CardenasEstimator uses the analytic balls-in-cells formula on
	// locally measured per-dimension cardinalities.
	CardenasEstimator EstimatorKind = iota
	// FMEstimator uses Flajolet–Martin probabilistic counting over the
	// local data (the paper's reference [6]).
	FMEstimator
)

// Config parameterizes a cube build.
type Config struct {
	// D is the data dimensionality.
	D int
	// Selected lists the views to materialize; nil means the full cube.
	Selected []lattice.ViewID
	// Gamma is the Adaptive–Sample–Sort shift threshold for raw-data
	// partitioning (paper default 1%).
	Gamma float64
	// MergeGamma is the Merge–Partitions Case 2/3 threshold (paper
	// default 3%).
	MergeGamma float64
	// Schedule selects global (default) or local schedule trees.
	Schedule ScheduleMode
	// Estimator selects the view-size estimator (default Cardenas).
	Estimator EstimatorKind
	// Partial selects the partial-cube planner when Selected is a
	// proper subset (default Pruned).
	Partial partialcube.Kind
	// SampleCap overrides the spaced-sample size (default 100p).
	SampleCap int
	// FMBitmaps is the sketch width for FMEstimator (default 64).
	FMBitmaps int
	// Agg is the aggregate operator applied to measures (default
	// record.OpSum; COUNT is OpSum over unit measures). A holistic
	// operator (OpDistinct, OpQuantile) keeps each group's sketch in
	// the views' state column.
	Agg record.AggOp
	// Cards, when len(Cards) == D, gives the per-dimension effective
	// cardinalities (in raw column order, post attribute-value
	// reordering). They drive caller-supplied KeyPlans for the external
	// sorts — skipping per-run width measurement and widening the
	// packed-kernel window — and are stored with the cube for query-time
	// planning. Optional: nil falls back to measured plans.
	Cards []int
	// MinSupport, when > 0, builds an iceberg cube (Beyer-Ramakrishnan;
	// Ng et al. [18] on PC clusters): only groups whose aggregate is >=
	// MinSupport are kept in the output views. The filter is applied to
	// the final merged views, so it is exact for any operator.
	MinSupport int64
	// OverlapComm enables the §4.1 communication–computation overlap:
	// the bulk h-relations of data partitioning (Adaptive–Sample–Sort)
	// and merging (Procedure 3) are posted and run concurrently with
	// the local work that follows them, with the unmasked remainder
	// settled at the next barrier.
	OverlapComm bool
	// Faults, when non-nil, installs a deterministic fault-injection
	// plan on the machine: crashes, dropped/corrupted h-relation
	// payloads (repaired by charged retries), and stragglers.
	Faults *faults.Plan
	// Checkpoint configures per-dimension checkpointing and crash
	// recovery.
	Checkpoint CheckpointConfig
}

// CheckpointConfig configures the fault-tolerance protocol: after
// every Interval dimension iterations each processor replicates its
// newly completed view slices (and, up front, its raw share) to its
// ring neighbor's disk along with a completed-view manifest, all
// charged on the simulated clock. When a processor crashes, the
// survivors shrink to p-1, the dead rank's replicas are adopted by its
// neighbor, the completed views are rebalanced with
// Adaptive–Sample–Sort, and the build restarts from the last
// checkpointed dimension boundary. Without checkpointing a crash
// fails the build fast with a structured error.
type CheckpointConfig struct {
	// Enabled turns checkpointing (and crash recovery) on.
	Enabled bool
	// Interval is the number of dimension iterations per checkpoint
	// (default 1: checkpoint at every Di boundary).
	Interval int
	// DetectSeconds is the failure-detection timeout survivors charge
	// before starting recovery (default 0.25s, a heartbeat timeout).
	DetectSeconds float64
}

func (c Config) withDefaults() Config {
	if c.Gamma == 0 {
		c.Gamma = 0.01
	}
	if c.MergeGamma == 0 {
		c.MergeGamma = 0.03
	}
	if c.FMBitmaps == 0 {
		c.FMBitmaps = 64
	}
	if c.Checkpoint.Interval == 0 {
		c.Checkpoint.Interval = 1
	}
	if c.Checkpoint.DetectSeconds == 0 {
		c.Checkpoint.DetectSeconds = 0.25
	}
	return c
}

// validate checks the configuration and the machine's preloaded state
// up front, so configuration mistakes surface as errors instead of
// panics from deep inside the SPMD run.
func (c Config) validate(m *cluster.Machine, rawFile string) error {
	if c.D < 1 || c.D > lattice.MaxDims {
		return fmt.Errorf("core: bad dimensionality %d (want 1..%d)", c.D, lattice.MaxDims)
	}
	if c.Gamma <= 0 || c.Gamma >= 1 {
		return fmt.Errorf("core: gamma %v out of range (0,1)", c.Gamma)
	}
	if c.MergeGamma <= 0 || c.MergeGamma >= 1 {
		return fmt.Errorf("core: merge gamma %v out of range (0,1)", c.MergeGamma)
	}
	if c.SampleCap < 0 {
		return fmt.Errorf("core: negative sample cap %d", c.SampleCap)
	}
	if c.FMBitmaps < 1 {
		return fmt.Errorf("core: bad FM bitmap count %d", c.FMBitmaps)
	}
	if c.MinSupport < 0 {
		return fmt.Errorf("core: negative iceberg threshold %d", c.MinSupport)
	}
	if c.Agg.Holistic() && c.MinSupport > 0 {
		return fmt.Errorf("core: iceberg threshold is undefined for holistic aggregate %v (group state is a sketch)", c.Agg)
	}
	full := lattice.Full(c.D)
	for _, v := range c.Selected {
		if !v.SubsetOf(full) {
			return fmt.Errorf("core: selected view %#x outside the %d-dimensional lattice", uint32(v), c.D)
		}
	}
	if c.Checkpoint.Interval < 1 {
		return fmt.Errorf("core: checkpoint interval %d (want >= 1)", c.Checkpoint.Interval)
	}
	if c.Checkpoint.DetectSeconds < 0 {
		return fmt.Errorf("core: negative failure-detection timeout %v", c.Checkpoint.DetectSeconds)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(m.P()); err != nil {
			return err
		}
	}
	for r := 0; r < m.P(); r++ {
		disk := m.Proc(r).Disk()
		if !disk.Has(rawFile) {
			return fmt.Errorf("core: processor %d has no raw file %q", r, rawFile)
		}
		if cols := disk.Cols(rawFile); cols != c.D {
			return fmt.Errorf("core: processor %d raw file %q has %d columns, config says %d", r, rawFile, cols, c.D)
		}
	}
	return nil
}

// ViewFile names the disk file holding a view's local slice.
func ViewFile(v lattice.ViewID) string { return "cube." + v.String() }

// ViewGlobalRows sums the row counts of view v's local slices on the
// machine's disks; a view with no slices anywhere has 0 rows. It is a
// metadata access (uncharged), the hook the query-serving layer uses
// to plan over the cube where it lives.
func ViewGlobalRows(m *cluster.Machine, v lattice.ViewID) int64 {
	var rows int64
	for r := 0; r < m.P(); r++ {
		if n := m.Proc(r).Disk().Len(ViewFile(v)); n > 0 {
			rows += int64(n)
		}
	}
	return rows
}

// ViewStoredBytes sums the modelled on-disk size of view v's slices as
// the storage layer reports them — compressed for sealed slices
// (metadata access, uncharged).
func ViewStoredBytes(m *cluster.Machine, v lattice.ViewID) int64 {
	var stored int64
	for r := 0; r < m.P(); r++ {
		if b := m.Proc(r).Disk().StoredBytes(ViewFile(v)); b > 0 {
			stored += int64(b)
		}
	}
	return stored
}

// ViewStateBytes sums the sketch blobs view v's slices hold (metadata
// access, uncharged; 0 for algebraic views).
func ViewStateBytes(m *cluster.Machine, v lattice.ViewID) int64 {
	var n int64
	for r := 0; r < m.P(); r++ {
		n += int64(m.Proc(r).Disk().StateBytes(ViewFile(v)))
	}
	return n
}

// Metrics aggregates a parallel cube build.
type Metrics struct {
	P          int
	SimSeconds float64
	// PhaseSeconds is the per-phase makespan contribution (max over
	// processors of local phase time): "partition", "plan", "build",
	// "merge".
	PhaseSeconds map[string]float64
	BytesMoved   int64
	BytesByPhase map[string]int64
	Supersteps   int64
	// CPUSeconds, DiskSeconds and CommSeconds break the makespan
	// processor's clock into components (taken from the processor that
	// finished last). The paper's §4.1 notes that overlapping
	// communication with local computation would mask 40-60% of the
	// communication overhead; MaskableCommFraction is CommSeconds over
	// the makespan, the upper bound of that optimization.
	// OverlappedCommSeconds is the communication the makespan processor
	// actually masked behind local work (non-zero only with
	// Config.OverlapComm).
	CPUSeconds            float64
	DiskSeconds           float64
	CommSeconds           float64
	OverlappedCommSeconds float64
	Shifts                int // global shifts triggered by Adaptive–Sample–Sort
	Resorts               int // views re-sorted during merge (local-tree mode)
	CaseCounts            map[mergepart.Case]int
	OutputRows            int64
	// OutputBytes is the row-format size of the output views (the
	// uncompressed baseline); OutputBytesStored is the modelled on-disk
	// size after columnar compression.
	OutputBytes       int64
	OutputBytesStored int64
	// SketchBytes is the size of the sealed sketch blobs the output
	// views hold (holistic aggregates only); ViewSketchBytes is the
	// per-view breakdown. Zero for algebraic operators.
	SketchBytes     int64
	ViewSketchBytes map[lattice.ViewID]int64
	ViewRows        map[lattice.ViewID]int64
	// ViewBytesStored is the per-view modelled on-disk size, summed over
	// the per-rank slices as the storage layer reports them.
	ViewBytesStored map[lattice.ViewID]int64
	// ViewOrders records each selected view's materialized attribute
	// order (the merge target order agreed by P0).
	ViewOrders map[lattice.ViewID]lattice.Order
	// SchedTrees retains, per dimension, the Pipesort schedule tree P0
	// planned and broadcast (global-tree mode only; nil per dimension in
	// local-tree mode, where processors never agreed on one). The
	// incremental-ingest subsystem replays these trees over delta data
	// instead of re-planning, so a batch follows exactly the schedule
	// the live cube was built with.
	SchedTrees map[int]*lattice.Tree
	// RetriedMessages counts h-relation payloads retransmitted to
	// repair injected drops and corruptions.
	RetriedMessages int64
	// CheckpointBytes is the total bytes written to checkpoint state
	// (neighbor replicas and manifests) across all processors.
	CheckpointBytes int64
	// CheckpointSeconds is the checkpoint phase's makespan contribution
	// (PhaseSeconds["checkpoint"]).
	CheckpointSeconds float64
	// RecoverySeconds is the time spent in crash recovery (failure
	// detection, replica adoption, rebalance, re-replication), max over
	// surviving processors.
	RecoverySeconds float64
	// FailedRanks lists the original ranks of crashed processors the
	// build recovered from, in crash order.
	FailedRanks []int
}

// dimObs captures what one processor observed during one dimension
// iteration. A restarted dimension replaces its observations wholesale
// so aborted partial attempts are not double counted.
type dimObs struct {
	shifts  int
	resorts int
	cases   map[mergepart.Case]int
	orders  map[lattice.ViewID]lattice.Order
	tree    *lattice.Tree // broadcast schedule tree (global mode only)
}

func newDimObs() *dimObs {
	return &dimObs{cases: map[mergepart.Case]int{}, orders: map[lattice.ViewID]lattice.Order{}}
}

// procOut captures per-processor observations during the SPMD run.
// Observations tied to a dimension live in dims so a recovery restart
// overwrites them instead of double counting; phase seconds accumulate
// across restarts because the repeated work really happened.
type procOut struct {
	phase           map[string]float64
	dims            map[int]*dimObs
	ckptBytes       int64
	recoverySeconds float64
}

func newProcOut() *procOut {
	return &procOut{phase: map[string]float64{}, dims: map[int]*dimObs{}}
}

// BuildCube runs Procedure 1 on the machine. Every processor's disk
// must hold its share of the raw data under rawFile (n/p records each,
// D dimension columns in canonical order). On return, each selected
// view v is distributed across the processors' disks under
// ViewFile(v), globally sorted in its attribute order, balanced within
// the merge threshold.
//
// With cfg.Faults installed, an injected crash either fails the build
// with a *faults.CrashError (no checkpointing, or a crash outside the
// recoverable region), or — with cfg.Checkpoint.Enabled on more than
// one processor — shrinks the machine to the survivors, recovers from
// the per-dimension checkpoints, and completes the build degraded.
// Sequential crashes are recoverable as long as at least one processor
// survives each; a crash during recovery itself fails fast.
func BuildCube(m *cluster.Machine, rawFile string, cfg Config) (Metrics, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(m, rawFile); err != nil {
		return Metrics{}, err
	}
	if err := m.SetFaults(cfg.Faults); err != nil {
		return Metrics{}, err
	}
	sel := cfg.Selected
	if sel == nil {
		sel = lattice.AllViews(cfg.D)
	}
	origP := m.P()
	outs := make([]*procOut, m.P())
	for i := range outs {
		outs[i] = newProcOut()
	}
	var failed []int
	startDim := 0
	initial := true
	for {
		err := m.Run(func(p *cluster.Proc) {
			buildOnProc(p, rawFile, cfg, sel, outs[p.Rank()], startDim, initial)
		})
		if err == nil {
			break
		}
		var crash *faults.CrashError
		if !errors.As(err, &crash) || !cfg.Checkpoint.Enabled || m.P() <= 1 || crash.Dimension < startDim {
			return Metrics{}, err
		}
		// Survivors continue on p-1 processors from the last
		// checkpointed dimension boundary at or before the crash.
		resume := lastCheckpointBoundary(crash.Dimension, startDim, cfg.Checkpoint.Interval)
		dead := m.RankOf(crash.Rank)
		if dead < 0 {
			return Metrics{}, err
		}
		if serr := m.Shrink(dead); serr != nil {
			return Metrics{}, serr
		}
		outs = append(outs[:dead:dead], outs[dead+1:]...)
		failed = append(failed, crash.Rank)
		// The dead rank's ring neighbor holds its replicas and adopts
		// its data: old rank (dead+1) mod oldP is new rank dead mod newP.
		adopter := dead % m.P()
		if rerr := m.Run(func(p *cluster.Proc) {
			recoverOnProc(p, rawFile, cfg, sel, resume, adopter, outs[p.Rank()])
		}); rerr != nil {
			return Metrics{}, rerr
		}
		startDim = resume
		initial = false
	}
	met := collectMetrics(m, origP, sel, outs, cfg)
	met.FailedRanks = failed
	return met, nil
}

// buildOnProc is the SPMD body of Procedure 1, starting at dimension
// startDim (0 on a fresh build, the resume boundary after recovery).
// initial marks the first attempt, which takes the up-front raw-data
// checkpoint.
func buildOnProc(p *cluster.Proc, rawFile string, cfg Config, sel []lattice.ViewID, out *procOut, startDim int, initial bool) {
	d := cfg.D
	p.SetOverlap(cfg.OverlapComm)
	phase := PhaseTimer(p, out.phase)

	ck := cfg.Checkpoint
	if initial && ck.Enabled {
		// Before any real work: replicate the raw share to the ring
		// neighbor so a crash in any dimension can restart from it.
		done := phase("checkpoint")
		checkpointInitial(p, rawFile, out)
		done()
	}

	lastCkpt := startDim
	for i := startDim; i < d; i++ {
		// Dimension boundary: crash injection point, fresh observation
		// slot (a restarted dimension must not double count).
		p.SetEpoch(i)
		obs := newDimObs()
		out.dims[i] = obs

		partSel := lattice.PartitionSubset(i, d, sel)
		if len(partSel) > 0 {
			buildDim(p, rawFile, cfg, i, partSel, obs, phase)
		}

		if ck.Enabled && i < d-1 && (i+1-startDim)%ck.Interval == 0 {
			done := phase("checkpoint")
			checkpointBoundary(p, cfg, sel, lastCkpt, i+1, out)
			done()
			lastCkpt = i + 1
		}
	}
}

// buildDim runs one dimension iteration of Procedure 1: partition,
// plan, build, merge.
func buildDim(p *cluster.Proc, rawFile string, cfg Config, i int, partSel []lattice.ViewID, obs *dimObs, phase func(string) func()) {
	d := cfg.D
	disk := p.Disk()
	agg := sketch.Agg(cfg.Agg)
	partViews := lattice.Partition(i, d)
	root := lattice.Root(i, d)
	rootOrder := lattice.Canonical(root)
	rootFile := ViewFile(root)

	// ---- Step 1: data partitioning. ----
	done := phase("partition")
	// 1a: local Di-root = sort + scan of the local raw share.
	LocalRoot(p, rawFile, rootFile, rootOrder, cfg.Cards, agg)
	// 1b: global sort of the union of the local roots.
	sres := samplesort.Sort(p, rootFile, cfg.Gamma)
	if sres.Shifted {
		obs.shifts++
	}
	// 1c: local re-aggregation of the received slice.
	LocalAggregate(p, rootFile, agg)
	done()

	// ---- Step 2: local Di-partition. ----
	done = phase("plan")
	tree := planTree(p, cfg, i, partViews, partSel, root, rootOrder, rootFile)
	if cfg.Schedule == GlobalTree {
		// Retain the agreed tree for incremental ingest (read-only from
		// here on; pipesort never mutates it).
		obs.tree = tree
	}
	done()

	done = phase("build")
	ExecuteSchedule(p, tree, ViewFile, partSel, cfg.SampleCap, agg)
	done()

	// ---- Step 3: merge of the local Di-partitions. ----
	done = phase("merge")
	targets := mergeTargets(p, tree, partSel)
	for k, v := range partSel {
		obs.orders[v] = targets[k]
		my := tree.Node(v).Order
		r := mergepart.MergeViewAgg(p, ViewFile(v), v, my, targets[k], rootOrder, cfg.MergeGamma, agg)
		if r.Resorted {
			obs.resorts++
		}
		obs.cases[r.Case]++
		if cfg.MinSupport > 0 {
			icebergFilter(p, ViewFile(v), cfg.MinSupport)
		}
		// Rewrite the finished slice in the columnar compressed layout:
		// every later consumer — checkpoints, persist, snapshots,
		// queries — reads it at the compressed size.
		if disk.Has(ViewFile(v)) {
			disk.Seal(ViewFile(v))
		}
	}
	done()
}

// icebergFilter drops groups whose final aggregate falls below the
// iceberg threshold (one scan and a rewrite of the survivors).
func icebergFilter(p *cluster.Proc, file string, minSupport int64) {
	disk := p.Disk()
	t := disk.MustTake(file)
	p.Clock().AddCompute(costmodel.ScanOps(t.Len()))
	kept := record.New(t.D, 0)
	n := t.Len()
	for i := 0; i < n; i++ {
		if t.Meas(i) >= minSupport {
			kept.AppendFrom(t, i)
		}
	}
	disk.Put(file, kept)
}

// planTree performs Steps 2a/2b: P0 plans and broadcasts in global
// mode; every processor plans its own tree in local mode.
func planTree(p *cluster.Proc, cfg Config, i int, partViews, partSel []lattice.ViewID, root lattice.ViewID, rootOrder lattice.Order, rootFile string) *lattice.Tree {
	needPlan := cfg.Schedule == LocalTree || p.Rank() == 0
	var tree *lattice.Tree
	if needPlan {
		sizer := makeSizer(p, cfg, rootFile, rootOrder)
		if len(partSel) == len(partViews) {
			tree = pipesort.Plan(cfg.D, root, rootOrder, partViews, sizer)
		} else {
			tree = partialcube.Plan(cfg.Partial, cfg.D, root, rootOrder, partViews, partSel, sizer)
		}
		if fm, ok := sizer.(*estimate.FMSizer); ok {
			p.Clock().AddCompute(fm.ScanOps)
		}
	}
	if cfg.Schedule == GlobalTree {
		// The root's encoded size governs the charge; receivers are
		// billed for what was actually posted.
		bytes := 0
		if p.Rank() == 0 {
			bytes = tree.EncodedBytes()
		}
		tree = cluster.Broadcast(p, 0, tree, bytes)
	}
	return tree
}

// makeSizer builds the view-size estimator from this processor's local
// root slice — the paper's "statistical estimates based on the data
// available".
func makeSizer(p *cluster.Proc, cfg Config, rootFile string, rootOrder lattice.Order) estimate.Sizer {
	disk := p.Disk()
	t := disk.MustGet(rootFile)
	switch cfg.Estimator {
	case FMEstimator:
		return estimate.NewFM(t, rootOrder, cfg.FMBitmaps)
	default:
		p.Clock().AddCompute(costmodel.ScanOps(t.Len()) * float64(len(rootOrder)))
		cards := estimate.MeasureCardinalities(t, rootOrder)
		return estimate.NewCardenas(int64(t.Len()), cards)
	}
}

// mergeTargets agrees on the per-view merge orders: P0's
// materialization orders, broadcast to everyone. In global-tree mode
// these always equal the local orders; in local-tree mode they may
// differ, triggering merge-time re-sorts.
func mergeTargets(p *cluster.Proc, tree *lattice.Tree, partSel []lattice.ViewID) []lattice.Order {
	orders := make([]lattice.Order, len(partSel))
	bytes := 0
	if p.Rank() == 0 {
		for k, v := range partSel {
			orders[k] = tree.Node(v).Order
			bytes += 1 + len(orders[k])
		}
	}
	return cluster.Broadcast(p, 0, orders, bytes)
}

// MaskableCommFraction returns the fraction of the makespan spent in
// communication — the upper bound on the §4.1 overlap optimization.
func (m Metrics) MaskableCommFraction() float64 {
	if m.SimSeconds == 0 {
		return 0
	}
	return m.CommSeconds / m.SimSeconds
}

// collectMetrics aggregates per-processor observations and the final
// disk state. origP is the machine size the build started with; after
// crash recovery m.P() is smaller.
func collectMetrics(m *cluster.Machine, origP int, sel []lattice.ViewID, outs []*procOut, cfg Config) Metrics {
	st := m.Stats()
	met := Metrics{
		P:               origP,
		SimSeconds:      m.SimSeconds(),
		PhaseSeconds:    map[string]float64{},
		BytesMoved:      st.BytesMoved,
		BytesByPhase:    st.ByPhase,
		Supersteps:      st.Supersteps,
		RetriedMessages: st.Retried,
		CaseCounts:      map[mergepart.Case]int{},
		ViewRows:        map[lattice.ViewID]int64{},
		ViewOrders:      map[lattice.ViewID]lattice.Order{},
	}
	for _, out := range outs {
		for name, sec := range out.phase {
			if sec > met.PhaseSeconds[name] {
				met.PhaseSeconds[name] = sec
			}
		}
		for _, obs := range out.dims {
			met.Shifts += obs.shifts
			met.Resorts += obs.resorts
		}
		met.CheckpointBytes += out.ckptBytes
		if out.recoverySeconds > met.RecoverySeconds {
			met.RecoverySeconds = out.recoverySeconds
		}
	}
	met.CheckpointSeconds = met.PhaseSeconds["checkpoint"]
	// Component breakdown of the slowest processor's clock.
	for r := 0; r < m.P(); r++ {
		clk := m.Proc(r).Clock()
		if clk.Seconds() >= met.SimSeconds-1e-9 {
			met.CPUSeconds = clk.CPUSeconds()
			met.DiskSeconds = clk.DiskSeconds()
			met.CommSeconds = clk.CommSeconds()
			met.OverlappedCommSeconds = clk.OverlappedCommSeconds()
			break
		}
	}
	// Case counts, merge orders and retained schedule trees from P0's
	// observations (identical on all processors).
	met.SchedTrees = map[int]*lattice.Tree{}
	for i, obs := range outs[0].dims {
		for c, n := range obs.cases {
			met.CaseCounts[c] += n
		}
		for v, o := range obs.orders {
			met.ViewOrders[v] = o
		}
		if obs.tree != nil {
			met.SchedTrees[i] = obs.tree
		}
	}
	met.ViewBytesStored = map[lattice.ViewID]int64{}
	met.ViewSketchBytes = map[lattice.ViewID]int64{}
	for _, v := range sel {
		rows, stored := ViewGlobalRows(m, v), ViewStoredBytes(m, v)
		var sk int64
		if cfg.Agg.Holistic() {
			sk = ViewStateBytes(m, v)
		}
		met.ViewRows[v] = rows
		met.ViewBytesStored[v] = stored
		met.ViewSketchBytes[v] = sk
		met.OutputRows += rows
		met.OutputBytes += rows * int64(record.RowBytes(v.Count()))
		met.OutputBytesStored += stored
		met.SketchBytes += sk
	}
	return met
}
