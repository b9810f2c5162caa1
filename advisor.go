package rolap

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/advisor"
	"repro/internal/estimate"
	"repro/internal/ingest"
	"repro/internal/lattice"
	"repro/internal/queryengine"
	"repro/internal/record"
)

// AdvisorOptions configures a materialization advisor.
type AdvisorOptions struct {
	// MaxViews caps the materialized set size (0 = no cap).
	MaxViews int
	// StorageBudgetBytes caps total estimated view storage (0 = no
	// cap); live views count at their actual size.
	StorageBudgetBytes int64
	// DecayFactor multiplies the demand window each Step before new
	// traffic is folded in (default 0.5), so old traffic ages out.
	DecayFactor float64
	// MinFallbacks is the least decayed fallback traffic a target view
	// needs before materialization is considered (default 4).
	MinFallbacks float64
	// ColdSourceQueries is the most decayed traffic a view may serve
	// and still be retired (default 0.25).
	ColdSourceQueries float64
	// MaterializePerStep / RetirePerStep bound one Step's actions
	// (defaults 2 and 1).
	MaterializePerStep int
	RetirePerStep      int
	// CostWeight scales one-time build cost against recurring
	// per-window scan savings (default 0.25).
	CostWeight float64
	// Seed fixes the score tie-break hash, making decisions
	// reproducible for a fixed traffic transcript.
	Seed int64
	// Interval is Run's step period (default 250ms).
	Interval time.Duration
}

func (o AdvisorOptions) withDefaults() AdvisorOptions {
	if o.DecayFactor == 0 {
		o.DecayFactor = 0.5
	}
	if o.MinFallbacks == 0 {
		o.MinFallbacks = 4
	}
	if o.ColdSourceQueries == 0 {
		o.ColdSourceQueries = 0.25
	}
	if o.MaterializePerStep == 0 {
		o.MaterializePerStep = 2
	}
	if o.RetirePerStep == 0 {
		o.RetirePerStep = 1
	}
	if o.CostWeight == 0 {
		o.CostWeight = 0.25
	}
	if o.Interval == 0 {
		o.Interval = 250 * time.Millisecond
	}
	return o
}

// Recommendation is one advised (and, from Step, executed) action.
type Recommendation struct {
	// Action is "materialize" or "retire".
	Action string
	// View names the view's dimensions, sorted.
	View []string
	// From names the smallest covering view: the build source for a
	// materialization, the view absorbing the traffic for a retirement.
	From []string
	// Score is the decision's net benefit (row-scan units per demand
	// window for materialize; storage bytes reclaimed for retire).
	Score float64
	// EstRows is the estimated (materialize) or actual (retire) global
	// row count of View.
	EstRows int64
}

// AdvisorStats are cumulative counters over an advisor's lifetime.
type AdvisorStats struct {
	// Steps counts Step calls; Materialized and Retired count executed
	// actions.
	Steps        int64
	Materialized int64
	Retired      int64
	// CurrentViews is the materialized set size after the last step,
	// StorageBytes its total estimated storage.
	CurrentViews int
	StorageBytes int64
	// BuildSimSeconds is total simulated machine time spent building
	// views online; BuildBytesMoved the redistribution volume.
	BuildSimSeconds float64
	BuildBytesMoved int64
	// LastStep holds the most recent step's executed recommendations.
	LastStep []Recommendation
}

// Advisor closes the loop from serving traffic back into
// materialization: it mines the engine's per-view demand counters
// into a decayed window, scores unmaterialized fallback targets and
// cold views with a benefit/cost model, and executes the winning
// recommendations online — new views built from their smallest
// materialized ancestor through the incremental machinery (no
// rebuild, version counters and cache/index invalidation exactly as
// an ingest batch), cold views retired behind the engine's drain
// barrier so in-flight queries finish first. Decisions are
// deterministic for a fixed seed and traffic transcript. An Advisor
// is safe for concurrent use with servers and ingest.
type Advisor struct {
	c     *Cube
	opts  AdvisorOptions
	sizer estimate.Sizer

	mu      sync.Mutex // serializes steps
	window  map[lattice.ViewID]advisor.Demand
	lastRaw map[lattice.ViewID]queryengine.ViewDemand
	stats   AdvisorStats
}

// NewAdvisor returns a materialization advisor over the cube, built or
// loaded from a snapshot. Iceberg cubes are rejected for the same
// reason they cannot ingest: pruned groups make online re-aggregation
// wrong.
func (c *Cube) NewAdvisor(opts AdvisorOptions) (*Advisor, error) {
	if c.opts.MinSupport > 0 {
		return nil, fmt.Errorf("rolap: iceberg cubes cannot be adapted online (pruned groups are unrecoverable)")
	}
	opts = opts.withDefaults()
	if opts.DecayFactor < 0 || opts.DecayFactor >= 1 {
		return nil, fmt.Errorf("rolap: decay factor %v out of range [0,1)", opts.DecayFactor)
	}
	// Cardenas estimates need the fact count and per-dimension
	// cardinalities in internal order.
	c.metMu.RLock()
	n := int64(c.in.table.Len()) + c.metrics.IngestedRows
	c.metMu.RUnlock()
	return &Advisor{
		c:       c,
		opts:    opts,
		sizer:   estimate.NewCardenas(n, c.in.cards()),
		window:  map[lattice.ViewID]advisor.Demand{},
		lastRaw: map[lattice.ViewID]queryengine.ViewDemand{},
	}, nil
}

// Plan refreshes the demand window and returns what Step would do,
// without executing anything. Like Step it advances the decayed
// window, so interleaving Plan and Step changes the transcript.
func (a *Advisor) Plan() []Recommendation {
	a.mu.Lock()
	defer a.mu.Unlock()
	recs, _ := a.planLocked()
	out := make([]Recommendation, 0, len(recs))
	for _, r := range recs {
		out = append(out, a.publicRec(r))
	}
	return out
}

// planLocked advances the demand window from the engine's counters
// and scores the current state. Caller holds a.mu.
func (a *Advisor) planLocked() ([]advisor.Recommendation, map[lattice.ViewID]int64) {
	c := a.c
	raw := c.engine.DemandSnapshot()
	delta := make(map[lattice.ViewID]advisor.Demand, len(raw))
	for v, d := range raw {
		last := a.lastRaw[v]
		delta[v] = advisor.Demand{
			Hits:          float64(d.Hits - last.Hits),
			Fallbacks:     float64(d.Fallbacks - last.Fallbacks),
			FallbackRows:  float64(d.FallbackRows - last.FallbackRows),
			SourceQueries: float64(d.SourceQueries - last.SourceQueries),
		}
	}
	a.lastRaw = raw
	advisor.Decay(a.window, a.opts.DecayFactor, delta)

	t := c.engine.Topology()
	materialized := map[lattice.ViewID]int64{}
	for _, v := range t.Views() {
		materialized[v] = t.Rows(v)
	}
	cfg := advisor.Config{
		D:                  len(c.in.schema.Dimensions),
		MaxViews:           a.opts.MaxViews,
		StorageBudgetBytes: a.opts.StorageBudgetBytes,
		MinFallbacks:       a.opts.MinFallbacks,
		ColdSourceQueries:  a.opts.ColdSourceQueries,
		MaterializePerStep: a.opts.MaterializePerStep,
		RetirePerStep:      a.opts.RetirePerStep,
		CostWeight:         a.opts.CostWeight,
		Seed:               a.opts.Seed,
	}
	return advisor.Recommend(cfg, a.window, materialized, a.sizer), materialized
}

// Step runs one advise cycle: refresh the demand window, score, and
// execute the recommendations online. It returns the executed
// actions. Materializations and retirements serialize with Ingest
// (same lock) and drain in-flight queries (the engine's maintenance
// barrier); a concurrent query plans against either the pre- or the
// post-action view set, whichever its execution runs on.
func (a *Advisor) Step() ([]Recommendation, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	recs, _ := a.planLocked()

	c := a.c
	c.ingMu.Lock()
	defer c.ingMu.Unlock()
	var out []Recommendation
	for _, r := range recs {
		switch r.Action {
		case advisor.Materialize:
			res, err := c.materializeView(r.View)
			if err != nil {
				a.finishStep(out)
				return out, err
			}
			a.stats.Materialized++
			a.stats.BuildSimSeconds += res.SimSeconds
			a.stats.BuildBytesMoved += res.BytesMoved
			pr := a.publicRec(r)
			pr.EstRows = res.Rows // report the actual built size
			out = append(out, pr)
		case advisor.Retire:
			retired, err := c.retireView(r.View)
			if err != nil {
				a.finishStep(out)
				return out, err
			}
			if retired {
				a.stats.Retired++
				out = append(out, a.publicRec(r))
			}
		}
	}
	a.finishStep(out)
	return out, nil
}

// finishStep updates the advisor's per-step bookkeeping. Caller holds
// a.mu and c.ingMu.
func (a *Advisor) finishStep(out []Recommendation) {
	a.stats.Steps++
	a.stats.LastStep = out
	views := a.c.engine.Topology().Views()
	a.stats.CurrentViews = len(views)
	var bytes int64
	for _, v := range views {
		bytes += a.c.viewRowCount(v) * int64(record.RowBytes(v.Count()))
	}
	a.stats.StorageBytes = bytes
}

// Run steps the advisor on its Interval until ctx is cancelled,
// returning the first execution error (nil on cancellation).
func (a *Advisor) Run(ctx context.Context) error {
	t := time.NewTicker(a.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
			if _, err := a.Step(); err != nil {
				return err
			}
		}
	}
}

// Stats returns the advisor's cumulative counters.
func (a *Advisor) Stats() AdvisorStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	st := a.stats
	st.LastStep = append([]Recommendation(nil), a.stats.LastStep...)
	return st
}

func (a *Advisor) publicRec(r advisor.Recommendation) Recommendation {
	return Recommendation{
		Action:  r.Action.String(),
		View:    a.c.sourceViewNames(r.View),
		From:    a.c.sourceViewNames(r.From),
		Score:   r.Score,
		EstRows: r.EstRows,
	}
}

// materializeView builds view v online from its smallest materialized
// ancestor and registers it for planning, ingest maintenance, and
// persistence, exactly as a build-time view: version counter bumped
// (stale cache entries miss), prefix indexes dropped, the partition's
// retained schedule tree invalidated so future ingest batches derive
// a schedule that includes the new view. Caller holds ingMu.
func (c *Cube) materializeView(v lattice.ViewID) (ingest.MaterializeResult, error) {
	// ingMu excludes every other writer of the view set.
	t := c.engine.Topology()
	if _, ok := t.Order(v); ok {
		return ingest.MaterializeResult{}, nil // lost a race; already live
	}
	src, err := t.PickSource(v)
	if err != nil {
		return ingest.MaterializeResult{}, fmt.Errorf("rolap: cannot materialize %v: %w", c.sourceViewNames(v), err)
	}
	srcOrder, _ := t.Order(src)
	order := lattice.Canonical(v)
	var res ingest.MaterializeResult
	var fp footprint
	err = c.engine.Maintain(func() error {
		r, err := ingest.MaterializeView(c.machine, ingest.MaterializeOptions{
			Src:        src,
			SrcOrder:   srcOrder,
			View:       v,
			Order:      order,
			MergeGamma: c.opts.MergeGamma,
			Agg:        c.op,
		})
		if err != nil {
			return err
		}
		res = r
		c.engine.AddView(v, order, r.Rows)
		c.dropScheduleTree(v)
		fp = c.footprint()
		return nil
	})
	if err != nil {
		return ingest.MaterializeResult{}, err
	}
	c.noteViewRows(v, res.Rows, res.SimSeconds, res.BytesMoved, fp)
	return res, nil
}

// retireView drops view v behind the drain barrier, if the remaining
// set still covers it (some other materialized view is a strict
// superset — retiring a frontier view would lose answerability).
// Returns whether the view was actually retired. Caller holds ingMu.
func (c *Cube) retireView(v lattice.ViewID) (bool, error) {
	retired := false
	var fp footprint
	err := c.engine.Maintain(func() error {
		t := c.engine.Topology()
		if _, ok := t.Order(v); !ok {
			return nil // already gone
		}
		covered := false
		for _, u := range t.Views() {
			if u != v && v.SubsetOf(u) {
				covered = true
				break
			}
		}
		if !covered {
			return nil // keep frontier views
		}
		// In-flight queries have drained (Maintain holds the machine
		// lock); later ones plan without v, and the version bump
		// invalidates cached results.
		c.engine.RemoveView(v)
		ingest.RetireView(c.machine, v)
		c.dropScheduleTree(v)
		fp = c.footprint()
		retired = true
		return nil
	})
	if err != nil {
		return false, err
	}
	if retired {
		c.noteViewRows(v, -1, 0, 0, fp)
	}
	return retired, nil
}

// dropScheduleTree drops the retained schedule tree of view v's
// partition after v is added or retired: a stale tree would silently
// omit a new view from future ingest delta builds (its rows would
// never reach the view), so ingest falls back to the deterministic
// schedule derived from the live orders. Caller holds ingMu.
func (c *Cube) dropScheduleTree(v lattice.ViewID) {
	delete(c.trees, lattice.PartitionOf(v, len(c.in.schema.Dimensions)))
}

// noteViewRows folds one online materialization (rows >= 0) or
// retirement (rows < 0) into the cube's cumulative metrics, all of its
// simulated cost under the "advise" phase. Caller holds ingMu.
func (c *Cube) noteViewRows(v lattice.ViewID, rows int64, simSeconds float64, bytesMoved int64, fp footprint) {
	c.metMu.Lock()
	defer c.metMu.Unlock()
	c.foldLocked(simSeconds, bytesMoved, map[string]float64{ingest.PhaseAdvise: simSeconds},
		map[lattice.ViewID]int64{v: rows}, fp)
}
