package rolap

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/lattice"
	"repro/internal/queryengine"
	"repro/internal/record"
)

// Bound restricts one dimension of a Query to the inclusive range
// [Lo, Hi]; an equality filter is Lo == Hi.
type Bound struct {
	Dim    string
	Lo, Hi uint32
}

// Query is one OLAP read: keep the facts inside every bound, group
// them by the Group dimensions and aggregate each group with the
// cube's operator. Roll-up and drill-down are the same Query with fewer
// or more Group dimensions; slice and dice are Bounds.
type Query struct {
	// Group lists the result's dimensions, in result column order. An
	// empty Group collapses the selection into one zero-dimension row (a
	// scalar aggregate; no row at all when nothing matches).
	Group []string
	// Bounds restrict dimensions, at most one bound per dimension. A
	// bounded dimension may also be grouped ("group by store where
	// store in 3..6").
	Bounds []Bound
	// Percentile is the rank in [0, 1] a Quantile cube reports for each
	// group; nil means the median. It must be nil on every other cube.
	Percentile *float64
}

// Querier is the query surface Cube, Server and ReplicaSet share.
type Querier interface {
	// Do answers q. The View's Attributes follow q.Group and its rows
	// are sorted; on holistic cubes (CountDistinct, Quantile) the
	// measures are served estimates and the View's Estimated flag is set.
	Do(ctx context.Context, q Query) (*View, QueryMetrics, error)
}

// resolve validates q against the schema and the cube's operator and
// states it in internal dimensions for the engine. Everything it
// rejects is the caller's mistake, whatever the state of the cube or
// of a replica serving it. It reads no view set: the engine picks the
// source view when it executes.
func (c *Cube) resolve(q Query) (queryengine.Query, error) {
	group, err := c.in.orderOf(q.Group)
	if err != nil {
		return queryengine.Query{}, err
	}
	bounds := make(map[int][2]uint32, len(q.Bounds))
	for _, b := range q.Bounds {
		dim, err := c.in.dimOf(b.Dim)
		if err != nil {
			return queryengine.Query{}, err
		}
		if _, dup := bounds[dim]; dup {
			return queryengine.Query{}, fmt.Errorf("rolap: dimension %q bounded twice", b.Dim)
		}
		if b.Lo > b.Hi {
			return queryengine.Query{}, fmt.Errorf("rolap: empty range on %q", b.Dim)
		}
		bounds[dim] = [2]uint32{b.Lo, b.Hi}
	}
	pct := defaultPercentile
	if q.Percentile != nil {
		if c.opts.Aggregate != Quantile {
			return queryengine.Query{}, fmt.Errorf("rolap: a percentile rank requires a Quantile cube (have %v)", c.opts.Aggregate)
		}
		if pct = *q.Percentile; !(pct >= 0 && pct <= 1) {
			return queryengine.Query{}, fmt.Errorf("rolap: percentile rank %v outside [0, 1]", pct)
		}
	}
	eq, err := c.engine.NewQuery(group, bounds)
	if err != nil {
		return queryengine.Query{}, fmt.Errorf("rolap: %w", err)
	}
	if c.op.Holistic() {
		eq.Percentile = pct
	}
	return eq, nil
}

// do is the one query path: resolve q, hand it to exec, which plans
// and executes it against the view set of that moment, and wrap the
// rows it returns as a View.
func (c *Cube) do(q Query, exec func(queryengine.Query) (*record.Table, QueryMetrics, error)) (*View, QueryMetrics, error) {
	eq, err := c.resolve(q)
	if err != nil {
		return nil, QueryMetrics{}, err
	}
	rows, qm, err := exec(eq)
	if err != nil {
		return nil, QueryMetrics{}, err
	}
	return &View{
		Attributes: append([]string(nil), q.Group...),
		Estimated:  c.op.Holistic(),
		order:      eq.Group,
		rows:       rows,
	}, qm, nil
}

// Do answers q where the data lives: every processor filters, projects
// and partially aggregates its own slice of the source view, and the
// partial aggregates are merged — no view is gathered onto one rank.
// Built and snapshot-loaded cubes run the same path. The result is a
// computed View, not materialized on the cluster.
func (c *Cube) Do(ctx context.Context, q Query) (*View, QueryMetrics, error) {
	return c.do(q, func(eq queryengine.Query) (*record.Table, QueryMetrics, error) {
		if err := ctx.Err(); err != nil {
			return nil, QueryMetrics{}, err
		}
		rows, em, err := c.engine.Execute(eq)
		return rows, c.queryMetrics(em), err
	})
}

// queryMetrics reports what one execution cost.
func (c *Cube) queryMetrics(em queryengine.Metrics) QueryMetrics {
	return QueryMetrics{
		SourceView:  c.sourceViewNames(em.Source),
		RowsScanned: em.RowsScanned,
		BytesMoved:  em.BytesMoved,
		SimSeconds:  em.SimSeconds,
		IndexUsed:   em.IndexUsed,
	}
}

// sourceViewNames renders a ViewID as its sorted user dimension names
// (the form QueryMetrics reports).
func (c *Cube) sourceViewNames(v lattice.ViewID) []string {
	names := c.in.namesOf(lattice.Canonical(v))
	sort.Strings(names)
	return names
}

// The named shorthands below are the three common Query shapes. Each
// front end exposes them with the signatures it always had; all of them
// build a Query and call Do.

// groupBy is Query{Group: dims} with one equality bound per filter.
func groupBy(ctx context.Context, qr Querier, dims []string, filters map[string]uint32) (*View, QueryMetrics, error) {
	q := Query{Group: dims, Bounds: make([]Bound, 0, len(filters))}
	for name, val := range filters {
		q.Bounds = append(q.Bounds, Bound{Dim: name, Lo: val, Hi: val})
	}
	return qr.Do(ctx, q)
}

// rangeAggregate is the scalar Query bounding dims[k] to [lo[k], hi[k]]:
// the measure of the single zero-dimension row, 0 when nothing matches.
func rangeAggregate(ctx context.Context, qr Querier, dims []string, lo, hi []uint32) (int64, QueryMetrics, error) {
	if len(dims) != len(lo) || len(dims) != len(hi) {
		return 0, QueryMetrics{}, fmt.Errorf("rolap: dims/lo/hi length mismatch")
	}
	q := Query{Bounds: make([]Bound, len(dims))}
	for k, name := range dims {
		q.Bounds[k] = Bound{Dim: name, Lo: lo[k], Hi: hi[k]}
	}
	v, qm, err := qr.Do(ctx, q)
	if err != nil || v.Len() == 0 {
		return 0, qm, err
	}
	return v.rows.Meas(0), qm, nil
}

// aggregate is the degenerate range [key, key].
func aggregate(ctx context.Context, qr Querier, dims []string, key []uint32) (int64, QueryMetrics, error) {
	if len(dims) != len(key) {
		return 0, QueryMetrics{}, fmt.Errorf("rolap: %d dimensions but %d key values", len(dims), len(key))
	}
	return rangeAggregate(ctx, qr, dims, key, key)
}

// GroupBy groups by dims, restricted by equality filters on any
// dimensions. Quantile cubes report the median; put another rank in a
// Query.
func (c *Cube) GroupBy(dims []string, filters map[string]uint32) (*View, error) {
	v, _, err := groupBy(context.Background(), c, dims, filters)
	return v, err
}

// Aggregate answers a point query: the measure of the group identified
// by the given dimension names and values.
func (c *Cube) Aggregate(dims []string, key []uint32) (int64, error) {
	m, _, err := aggregate(context.Background(), c, dims, key)
	return m, err
}

// RangeAggregate aggregates all groups whose value of dims[k] falls
// within [lo[k], hi[k]] (inclusive on both ends) for every k. Sum cubes
// total the range; Min/Max cubes return the min/max over it. Each
// processor binary-searches to the matching run when the range covers
// the source view's sort-order prefix.
func (c *Cube) RangeAggregate(dims []string, lo, hi []uint32) (int64, error) {
	m, _, err := rangeAggregate(context.Background(), c, dims, lo, hi)
	return m, err
}
