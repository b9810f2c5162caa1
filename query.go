package rolap

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/lattice"
	"repro/internal/queryengine"
)

// GroupBy computes an ad-hoc OLAP query against the cube: group by the
// given dimensions, restricted by equality filters on other
// dimensions, aggregating with the cube's operator. The query is
// answered from the smallest materialized view containing all
// referenced dimensions — the standard ROLAP rewrite. Roll-up and
// drill-down are GroupBy with fewer or more dimensions.
//
// The query executes where the data lives: every processor filters,
// projects, and partially aggregates its own slice of the source view,
// and the partial aggregates are merged — no view is gathered onto one
// rank. Built and snapshot-loaded cubes run the same path.
//
// The result is a computed View (not materialized on the cluster):
// Attributes follow the order of dims, rows are sorted.
//
// On holistic cubes (CountDistinct, Quantile) the measures are served
// estimates and the View's Estimated flag is set; Quantile cubes
// report the median — use GroupByPercentile for another rank.
func (c *Cube) GroupBy(dims []string, filters map[string]uint32) (*View, error) {
	return c.groupByAt(dims, filters, defaultPercentile)
}

// GroupByPercentile is GroupBy serving the p-th percentile (rank pct
// in [0, 1]) of each group's value distribution instead of the
// median. Only valid on Quantile cubes.
func (c *Cube) GroupByPercentile(dims []string, filters map[string]uint32, pct float64) (*View, error) {
	if c.opts.Aggregate != Quantile {
		return nil, fmt.Errorf("rolap: GroupByPercentile requires a Quantile cube (have %v)", c.opts.Aggregate)
	}
	if pct < 0 || pct > 1 {
		return nil, fmt.Errorf("rolap: percentile rank %v outside [0, 1]", pct)
	}
	return c.groupByAt(dims, filters, pct)
}

func (c *Cube) groupByAt(dims []string, filters map[string]uint32, pct float64) (*View, error) {
	// The advisor can retire a plan's source view between planning and
	// execution; a stale plan is rejected (never silently misread) and
	// simply replanned against the current view set.
	for attempt := 0; ; attempt++ {
		q, err := c.planQuery(dims, filters, pct)
		if err != nil {
			if errors.Is(err, queryengine.ErrStalePlan) && attempt < staleReplanLimit {
				continue
			}
			return nil, err
		}
		rows, _, err := c.engine.Execute(q)
		if err != nil {
			if errors.Is(err, queryengine.ErrStalePlan) && attempt < staleReplanLimit {
				continue
			}
			return nil, err
		}
		return &View{
			Attributes: append([]string(nil), dims...),
			Estimated:  c.op.Holistic(),
			order:      queryOrder(c, dims),
			rows:       rows,
		}, nil
	}
}

// staleReplanLimit bounds replan retries after ErrStalePlan. Each
// retry replans against the then-current view set; the set always
// contains a cover for any answerable query (retirement requires a
// surviving superset), so one retry normally suffices.
const staleReplanLimit = 4

// planQuery validates a GroupBy request and plans its distributed
// execution: dimension names are resolved to internal indices, filters
// become per-dimension equality bounds, and the engine picks the
// source view and column layout.
func (c *Cube) planQuery(dims []string, filters map[string]uint32, pct float64) (queryengine.Query, error) {
	if _, err := c.in.viewOf(dims); err != nil {
		return queryengine.Query{}, err
	}
	group := make([]int, len(dims))
	for k, name := range dims {
		one, err := c.in.viewOf([]string{name})
		if err != nil {
			return queryengine.Query{}, err
		}
		group[k] = one.Dims()[0]
	}
	bounds := make(map[int][2]uint32, len(filters))
	for name, val := range filters {
		one, err := c.in.viewOf([]string{name})
		if err != nil {
			return queryengine.Query{}, err
		}
		bounds[one.Dims()[0]] = [2]uint32{val, val}
	}
	q, err := c.engine.NewQuery(group, bounds)
	if err != nil {
		return queryengine.Query{}, fmt.Errorf("rolap: %w", err)
	}
	if c.op.Holistic() {
		q.Percentile = pct
	}
	return q, nil
}

// queryOrder builds the internal order matching the user's dims
// sequence (for Decode-style helpers on computed views).
func queryOrder(c *Cube, dims []string) lattice.Order {
	o := make(lattice.Order, len(dims))
	for k, name := range dims {
		v, _ := c.in.viewOf([]string{name})
		o[k] = v.Dims()[0]
	}
	return o
}

// RangeAggregate aggregates all groups of the named view whose
// attribute values fall within [lo[k], hi[k]] for every dimension
// (inclusive on both ends). It is answered from the exact materialized
// view when available, else the smallest superset. Only meaningful for
// Sum cubes when ranges span groups; for Min/Max cubes it returns the
// min/max over the range.
//
// The range is evaluated in place: each processor combines its slice's
// matching rows (binary-searching to the run when the range covers the
// sort-order prefix) and the partial aggregates are merged.
func (c *Cube) RangeAggregate(dims []string, lo, hi []uint32) (int64, error) {
	if len(dims) != len(lo) || len(dims) != len(hi) {
		return 0, fmt.Errorf("rolap: dims/lo/hi length mismatch")
	}
	for k := range lo {
		if lo[k] > hi[k] {
			return 0, fmt.Errorf("rolap: empty range on %q", dims[k])
		}
	}
	for attempt := 0; ; attempt++ {
		q, err := c.planRange(dims, lo, hi)
		if err != nil {
			if errors.Is(err, queryengine.ErrStalePlan) && attempt < staleReplanLimit {
				continue
			}
			return 0, err
		}
		rows, _, err := c.engine.Execute(q)
		if err != nil {
			if errors.Is(err, queryengine.ErrStalePlan) && attempt < staleReplanLimit {
				continue
			}
			return 0, err
		}
		if rows.Len() == 0 {
			return 0, nil
		}
		return rows.Meas(0), nil
	}
}

// planRange validates a RangeAggregate request and plans its
// distributed execution: all matching rows collapse into one
// zero-dimension group.
func (c *Cube) planRange(dims []string, lo, hi []uint32) (queryengine.Query, error) {
	if _, err := c.in.viewOf(dims); err != nil {
		return queryengine.Query{}, err
	}
	bounds := make(map[int][2]uint32, len(dims))
	for k, name := range dims {
		one, err := c.in.viewOf([]string{name})
		if err != nil {
			return queryengine.Query{}, err
		}
		bounds[one.Dims()[0]] = [2]uint32{lo[k], hi[k]}
	}
	q, err := c.engine.NewQuery(nil, bounds)
	if err != nil {
		return queryengine.Query{}, fmt.Errorf("rolap: %w", err)
	}
	if c.op.Holistic() {
		q.Percentile = defaultPercentile
	}
	return q, nil
}

// sourceViewNames renders a ViewID as its sorted user dimension names
// (the form QueryMetrics reports).
func (c *Cube) sourceViewNames(v lattice.ViewID) []string {
	names := c.in.namesOf(lattice.Canonical(v))
	sort.Strings(names)
	return names
}
