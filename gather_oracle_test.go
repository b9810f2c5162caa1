package rolap

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/record"
	"repro/internal/sketch"
)

// The gather-and-scan query implementation: gather the smallest
// covering view onto one rank, then filter, project and re-aggregate
// it row by row. It was the original serving path; it survives only
// here, as the independent oracle every Querier is compared against
// (TestDistributedGroupByMatchesGatherOracle, TestQuerierDifferential).
// It shares nothing with Cube.resolve or the engine's planner; it reads
// only the live view set from the engine's Topology.

// gatherQuery answers q by gathering the source view onto one rank and
// scanning it. A scalar query (empty Group) yields a zero-dimension
// view of one row, or of none when nothing matches.
func (c *Cube) gatherQuery(q Query) (*View, error) {
	group, err := c.in.viewOf(q.Group)
	if err != nil {
		return nil, err // repeated or unknown dimension
	}
	// A bound may restrict a grouped dimension ("group by store where
	// store = 3"), so the needed view is the union of both sets.
	need := group
	for _, b := range q.Bounds {
		one, err := c.in.viewOf([]string{b.Dim})
		if err != nil {
			return nil, err
		}
		need |= one
	}
	src, err := c.smallestSuperset(need)
	if err != nil {
		return nil, err
	}
	vw, ok := c.gather(src)
	if !ok {
		return nil, fmt.Errorf("rolap: view retired while gathering; retry")
	}

	// Column bookkeeping in the source view's layout.
	colOf := func(name string) int {
		one, _ := c.in.viewOf([]string{name})
		for col, d := range vw.order {
			if d == one.Dims()[0] {
				return col
			}
		}
		panic("gather oracle: source view lacks " + name)
	}
	outCols := make([]int, len(q.Group)) // result column -> source column
	order := make(lattice.Order, len(q.Group))
	for k, name := range q.Group {
		outCols[k] = colOf(name)
		order[k] = vw.order[outCols[k]]
	}
	boundCols := make([]int, len(q.Bounds))
	for k, b := range q.Bounds {
		boundCols[k] = colOf(b.Dim)
	}

	// Filter + project + re-aggregate.
	proj := record.New(len(q.Group), 0)
	key := make([]uint32, len(q.Group))
	for i := 0; i < vw.rows.Len(); i++ {
		match := true
		for k, b := range q.Bounds {
			if v := vw.rows.Dim(i, boundCols[k]); v < b.Lo || v > b.Hi {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		for k, col := range outCols {
			key[k] = vw.rows.Dim(i, col)
		}
		proj.Append(key, vw.rows.Meas(i))
		proj.SetState(proj.Len()-1, vw.rows.State(i))
	}
	out := record.SortAggregateAgg(proj, sketch.Agg(c.op))
	if c.op.Holistic() {
		pct := defaultPercentile
		if q.Percentile != nil {
			pct = *q.Percentile
		}
		sketch.Resolve(c.op, out, pct)
	}
	return &View{
		Attributes: append([]string(nil), q.Group...),
		Estimated:  c.op.Holistic(),
		order:      order,
		rows:       out,
	}, nil
}

// eqQuery is the Query of a GroupBy(dims, filters) call.
func eqQuery(dims []string, filters map[string]uint32) Query {
	q := Query{Group: dims}
	for name, val := range filters {
		q.Bounds = append(q.Bounds, Bound{Dim: name, Lo: val, Hi: val})
	}
	return q
}

// smallestSuperset returns the materialized view with the fewest rows
// containing all of need's dimensions. Ties on row count break to the
// smaller ViewID, so the choice is deterministic regardless of map
// iteration order (and matches the engine's planner).
func (c *Cube) smallestSuperset(need lattice.ViewID) (lattice.ViewID, error) {
	best := lattice.ViewID(0)
	bestRows := int64(-1)
	for _, v := range c.engine.Topology().Views() {
		if !need.SubsetOf(v) {
			continue
		}
		rows := c.viewRowCount(v)
		if bestRows == -1 || rows < bestRows || (rows == bestRows && v < best) {
			best, bestRows = v, rows
		}
	}
	if bestRows == -1 {
		return 0, fmt.Errorf("rolap: no materialized view covers the queried dimensions")
	}
	return best, nil
}
