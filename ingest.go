package rolap

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/ingest"
	"repro/internal/lattice"
	"repro/internal/record"
)

// IngestMetrics reports what one applied batch cost on the simulated
// machine. All simulated figures are increments over the cube's
// cumulative Metrics, which are updated in the same call.
type IngestMetrics struct {
	// Rows is the number of facts in the batch.
	Rows int64
	// SimSeconds is the simulated makespan the batch added.
	SimSeconds float64
	// IngestSeconds is the delta-build share of the makespan (local
	// aggregate, boundary-aligned sample sort, Pipesort over the
	// retained schedule trees); DeltaMergeSeconds is the share spent
	// merging the sorted deltas into the live view slices.
	IngestSeconds     float64
	DeltaMergeSeconds float64
	// BytesMoved is the batch's network volume; DeltaMergeBytes is the
	// merge phase's share of it.
	BytesMoved      int64
	DeltaMergeBytes int64
	// ChangedViews lists the views whose slices were replaced, each as
	// sorted dimension names, in deterministic order. Untouched views
	// keep their slices, cached results, and prefix indexes.
	ChangedViews [][]string
}

// FailedIngestError reports a batch killed by an injected processor
// crash (Cube.SetIngestFaults). The crash aborts every processor
// before any live view file is replaced, so the cube remains queryable
// at its exact pre-batch contents and the batch's rows stay buffered
// for a retry.
type FailedIngestError struct {
	// Processor is the crashed processor's rank.
	Processor int
	// Dimension is the dimension iteration at the crash point.
	Dimension int
	// Phase is the phase at the crash point ("ingest" or "deltamerge";
	// "" at a dimension boundary).
	Phase string
	// Superstep is the processor's collective superstep count at the
	// crash point.
	Superstep int64
}

func (e *FailedIngestError) Error() string {
	where := fmt.Sprintf("dimension %d", e.Dimension)
	if e.Phase != "" {
		where += ", phase " + e.Phase
	}
	return fmt.Sprintf("rolap: ingest failed: processor %d crashed (%s, superstep %d); cube unchanged, batch retained", e.Processor, where, e.Superstep)
}

// Ingest appends a batch of facts and applies it to the live cube as
// one incremental maintenance batch: the rows are built into a sorted
// delta cube with the same pipeline as the initial build and each
// per-view delta is merged into the live view slices in place — no
// rebuild. rows are dimension codes in schema order, measures the
// matching measure values (use 1 for COUNT semantics).
//
// Queries served concurrently see either the pre-batch or post-batch
// cube, never a mixture; server caches and prefix indexes for the
// changed views are invalidated atomically with the switch. On error
// the cube is unchanged and the rows stay buffered (Pending) for a
// retry.
func (c *Cube) Ingest(rows [][]uint32, measures []int64) (IngestMetrics, error) {
	if len(rows) != len(measures) {
		return IngestMetrics{}, fmt.Errorf("rolap: %d rows but %d measures", len(rows), len(measures))
	}
	if err := c.ingestable(); err != nil {
		return IngestMetrics{}, err
	}
	c.ingMu.Lock()
	defer c.ingMu.Unlock()
	for k, values := range rows {
		if err := c.appendPendingLocked(values, measures[k]); err != nil {
			return IngestMetrics{}, err
		}
	}
	return c.flushLocked()
}

// Flush applies any buffered facts (from a failed batch being retried,
// or an Ingester that has not reached its trigger) as one batch. With
// nothing buffered it is a no-op.
func (c *Cube) Flush() (IngestMetrics, error) {
	if err := c.ingestable(); err != nil {
		return IngestMetrics{}, err
	}
	c.ingMu.Lock()
	defer c.ingMu.Unlock()
	return c.flushLocked()
}

// Pending returns the number of buffered facts not yet applied.
func (c *Cube) Pending() int {
	c.ingMu.Lock()
	defer c.ingMu.Unlock()
	if c.pending == nil {
		return 0
	}
	return c.pending.Len()
}

// SetIngestFaults installs a one-shot fault-injection plan consumed by
// the next applied batch (for testing recovery: a crash mid-batch must
// leave the cube at its pre-batch contents). nil clears an installed
// plan.
func (c *Cube) SetIngestFaults(fp *FaultPlan) error {
	if err := c.ingestable(); err != nil {
		return err
	}
	plan := fp.internal()
	if plan != nil {
		if err := plan.Validate(c.machine.P()); err != nil {
			return fmt.Errorf("rolap: %w", err)
		}
	}
	c.ingMu.Lock()
	defer c.ingMu.Unlock()
	c.ingestFaults = plan
	return nil
}

// ingestable reports whether the cube accepts incremental batches.
func (c *Cube) ingestable() error {
	if c.opts.MinSupport > 0 {
		return fmt.Errorf("rolap: iceberg cubes cannot be maintained incrementally (pruned groups are unrecoverable); rebuild instead")
	}
	return nil
}

// appendPendingLocked validates one fact like Input.AddRow and buffers
// it in internal dimension order. Caller holds ingMu.
func (c *Cube) appendPendingLocked(values []uint32, measure int64) error {
	in := c.in
	if len(values) != len(in.schema.Dimensions) {
		return fmt.Errorf("rolap: row has %d values, schema has %d dimensions",
			len(values), len(in.schema.Dimensions))
	}
	if c.op.Holistic() && measure < 0 {
		return fmt.Errorf("rolap: negative measure %d: %s", measure, negativeHolistic)
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
	if c.pending == nil {
		c.pending = record.New(len(values), 0)
	}
	c.pending.Append(row, measure)
	return nil
}

// flushLocked runs the buffered facts through the delta build + merge
// on the simulated machine. Caller holds ingMu.
func (c *Cube) flushLocked() (_ IngestMetrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("rolap: internal failure: %v", r)
		}
	}()
	if c.pending == nil || c.pending.Len() == 0 {
		return IngestMetrics{}, nil
	}
	batch := c.pending
	// ingMu excludes every other writer of the view set.
	t := c.engine.Topology()
	views := t.Views()
	orders := make(map[lattice.ViewID]lattice.Order, len(views))
	for _, v := range views {
		orders[v], _ = t.Order(v)
	}
	cfg := ingest.Config{
		D:           len(c.in.schema.Dimensions),
		Selected:    views,
		Orders:      orders,
		Trees:       c.trees,
		Gamma:       c.opts.Gamma,
		MergeGamma:  c.opts.MergeGamma,
		Agg:         c.op,
		Cards:       c.in.cards(),
		OverlapComm: c.opts.OverlapComm,
		Faults:      c.ingestFaults,
	}
	// The plan is one-shot: a retry after an injected crash must not
	// re-fire the same crash.
	c.ingestFaults = nil

	// The machine work and the query-side invalidation both run under
	// the engine's maintenance lock, so a concurrent query executes
	// either entirely before the batch (old slices, old versions) or
	// entirely after (new slices, new versions) — never a mixture.
	var res ingest.Result
	var fp footprint
	err = c.engine.Maintain(func() error {
		r, err := ingest.IngestBatch(c.machine, batch, cfg)
		if err != nil {
			return err
		}
		res = r
		rows := make(map[lattice.ViewID]int64, len(r.Changed))
		for v := range r.Changed {
			rows[v] = r.ViewRows[v]
		}
		c.engine.InvalidateViews(rows)
		fp = c.footprint()
		return nil
	})
	if err != nil {
		var crash *faults.CrashError
		if errors.As(err, &crash) {
			return IngestMetrics{}, &FailedIngestError{
				Processor: crash.Rank,
				Dimension: crash.Dimension,
				Phase:     crash.Phase,
				Superstep: crash.Superstep,
			}
		}
		return IngestMetrics{}, err
	}
	c.pending = record.New(batch.D, 0)
	c.applyResult(res, fp)
	c.notifyCommitLocked(batch)

	im := IngestMetrics{
		Rows:              res.Rows,
		SimSeconds:        res.SimSeconds,
		IngestSeconds:     res.PhaseSeconds[ingest.PhaseIngest],
		DeltaMergeSeconds: res.DeltaMergeSeconds,
		BytesMoved:        res.BytesMoved,
		DeltaMergeBytes:   res.DeltaMergeBytes,
	}
	for v := range res.Changed {
		names := c.in.namesOf(lattice.Canonical(v))
		sort.Strings(names)
		im.ChangedViews = append(im.ChangedViews, names)
	}
	sort.Slice(im.ChangedViews, func(i, j int) bool {
		if len(im.ChangedViews[i]) != len(im.ChangedViews[j]) {
			return len(im.ChangedViews[i]) < len(im.ChangedViews[j])
		}
		return fmt.Sprint(im.ChangedViews[i]) < fmt.Sprint(im.ChangedViews[j])
	})
	return im, nil
}

// addCommitHookLocked registers a commit hook and returns its removal
// id. Caller holds ingMu.
func (c *Cube) addCommitHookLocked(fn func(rows [][]uint32, meas []int64)) int {
	if c.commitHooks == nil {
		c.commitHooks = map[int]func(rows [][]uint32, meas []int64){}
	}
	id := c.nextHookID
	c.nextHookID++
	c.commitHooks[id] = fn
	return id
}

// removeCommitHook deregisters a commit hook by id.
func (c *Cube) removeCommitHook(id int) {
	c.ingMu.Lock()
	defer c.ingMu.Unlock()
	delete(c.commitHooks, id)
}

// notifyCommitLocked delivers the just-applied batch to the registered
// commit hooks. Rows are independent copies in internal dimension
// order — exactly what the leader's delta build consumed, so a replica
// applying them reproduces the leader's post-batch state bit for bit.
// Caller holds ingMu.
func (c *Cube) notifyCommitLocked(batch *record.Table) {
	if len(c.commitHooks) == 0 {
		return
	}
	rows := make([][]uint32, batch.Len())
	meas := make([]int64, batch.Len())
	for i := range rows {
		rows[i] = batch.RowCopy(i)
		meas[i] = batch.Meas(i)
	}
	ids := make([]int, 0, len(c.commitHooks))
	for id := range c.commitHooks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		c.commitHooks[id](rows, meas)
	}
}

// applyShippedBatch applies one leader-committed batch to a replica
// cube. Rows are already in internal dimension order and were
// validated on the leader. The replica's pending buffer must be empty
// — replicas never buffer facts of their own — so the flush applies
// exactly this batch and the replica's views and version counters
// advance exactly as the leader's did for the same batch.
func (c *Cube) applyShippedBatch(rows [][]uint32, meas []int64) error {
	if len(rows) != len(meas) {
		return fmt.Errorf("rolap: %d rows but %d measures", len(rows), len(meas))
	}
	c.ingMu.Lock()
	defer c.ingMu.Unlock()
	if c.pending != nil && c.pending.Len() > 0 {
		return fmt.Errorf("rolap: replica has %d buffered facts; shipped batches must apply alone", c.pending.Len())
	}
	if c.pending == nil {
		c.pending = record.New(len(c.in.schema.Dimensions), 0)
	}
	for i, row := range rows {
		c.pending.Append(row, meas[i])
	}
	_, err := c.flushLocked()
	return err
}

// applyResult folds one batch's costs into the cube's cumulative
// public metrics.
func (c *Cube) applyResult(res ingest.Result, fp footprint) {
	c.metMu.Lock()
	defer c.metMu.Unlock()
	m := &c.metrics
	m.IngestedRows += res.Rows
	m.IngestBatches++
	m.IngestSeconds += res.PhaseSeconds[ingest.PhaseIngest]
	m.DeltaMergeSeconds += res.DeltaMergeSeconds
	m.DeltaMergeBytes += res.DeltaMergeBytes
	c.foldLocked(res.SimSeconds, res.BytesMoved, res.PhaseSeconds, res.ViewRows, fp)
}

// foldLocked is the one place maintenance work — an ingest batch, an
// online materialization, a retirement — enters the cumulative
// metrics: the simulated cost by phase, the new global row count of
// every view the work touched (negative: the view is gone), and the
// output totals recomputed over the live topology. fp is the cube's
// on-disk footprint after the work, measured while the machine was
// still held. Caller holds ingMu (which excludes the topology's
// writers) and metMu.
func (c *Cube) foldLocked(simSeconds float64, bytesMoved int64, phases map[string]float64, rows map[lattice.ViewID]int64, fp footprint) {
	m := &c.metrics
	m.SimSeconds += simSeconds
	m.BytesMoved += bytesMoved
	if m.PhaseSeconds == nil {
		m.PhaseSeconds = map[string]float64{}
	}
	for ph, s := range phases {
		m.PhaseSeconds[ph] += s
	}
	if m.ViewRows == nil {
		m.ViewRows = map[string]int64{}
	}
	for v, n := range rows {
		if n < 0 {
			delete(m.ViewRows, viewName(c.in, v))
		} else {
			m.ViewRows[viewName(c.in, v)] = n
		}
	}
	m.OutputRows, m.OutputBytes, m.OutputBytesStored = 0, 0, fp.stored
	for _, v := range c.engine.Topology().Views() {
		n := m.ViewRows[viewName(c.in, v)]
		m.OutputRows += n
		m.OutputBytes += n * int64(record.RowBytes(v.Count()))
	}
	if c.op.Holistic() {
		m.SketchBytes = 0
		m.ViewSketchBytes = make(map[string]int64, len(fp.sketch))
		for v, b := range fp.sketch {
			m.SketchBytes += b
			m.ViewSketchBytes[viewName(c.in, v)] = b
		}
	}
}

// footprint is the cube's modelled on-disk size: every live view's
// slices at the size the storage layer reports, and per view the
// sketch blobs among them.
type footprint struct {
	stored int64
	sketch map[lattice.ViewID]int64
}

// footprint measures the live views. Call it while holding the machine
// (inside engine.Maintain) and ingMu.
func (c *Cube) footprint() footprint {
	var fp footprint
	views := c.engine.Topology().Views()
	for _, v := range views {
		fp.stored += core.ViewStoredBytes(c.machine, v)
	}
	if c.op.Holistic() {
		fp.sketch = make(map[lattice.ViewID]int64, len(views))
		for _, v := range views {
			fp.sketch[v] = core.ViewStateBytes(c.machine, v)
		}
	}
	return fp
}

// IngesterOptions sets an Ingester's automatic flush triggers. A batch
// is applied when the buffer reaches MaxRows facts or MaxBytes of
// buffered fact data, whichever fires first; a zero field disables
// that trigger. With both zero, MaxRows defaults to 4096.
type IngesterOptions struct {
	MaxRows  int
	MaxBytes int64
}

// Ingester is a buffering append front end over Cube.Ingest: facts
// accumulate until a size trigger fires, then flush as one incremental
// batch. Amortizing the per-batch delta build over more rows is the
// whole economy of incremental maintenance — see the ingest benchmark.
// An Ingester is safe for concurrent use.
type Ingester struct {
	c    *Cube
	opts IngesterOptions
}

// NewIngester returns a buffering appender over the cube.
func (c *Cube) NewIngester(opts IngesterOptions) (*Ingester, error) {
	if err := c.ingestable(); err != nil {
		return nil, err
	}
	if opts.MaxRows < 0 || opts.MaxBytes < 0 {
		return nil, fmt.Errorf("rolap: negative ingester trigger")
	}
	if opts.MaxRows == 0 && opts.MaxBytes == 0 {
		opts.MaxRows = 4096
	}
	return &Ingester{c: c, opts: opts}, nil
}

// Add buffers one fact (values in schema order). When the buffer
// reaches a trigger the batch is applied and its metrics returned with
// flushed=true; otherwise the zero IngestMetrics and flushed=false.
// A failed flush keeps the buffer for retry (Flush or the next Add).
func (g *Ingester) Add(values []uint32, measure int64) (met IngestMetrics, flushed bool, err error) {
	c := g.c
	c.ingMu.Lock()
	defer c.ingMu.Unlock()
	if err := c.appendPendingLocked(values, measure); err != nil {
		return IngestMetrics{}, false, err
	}
	n := c.pending.Len()
	if (g.opts.MaxRows > 0 && n >= g.opts.MaxRows) ||
		(g.opts.MaxBytes > 0 && int64(n)*int64(record.RowBytes(c.pending.D)) >= g.opts.MaxBytes) {
		met, err = c.flushLocked()
		return met, err == nil, err
	}
	return IngestMetrics{}, false, nil
}

// Flush applies the buffered facts regardless of the triggers.
func (g *Ingester) Flush() (IngestMetrics, error) {
	return g.c.Flush()
}

// Pending returns the number of buffered facts.
func (g *Ingester) Pending() int { return g.c.Pending() }
