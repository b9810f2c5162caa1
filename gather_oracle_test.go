package rolap

import (
	"fmt"

	"repro/internal/lattice"
	"repro/internal/record"
)

// The gather-and-scan query implementation: gather the smallest
// covering view onto one rank, then filter, project and re-aggregate
// it row by row. It was the original serving path; it survives only
// here, as the independent oracle the distributed engine is compared
// against (TestDistributedGroupByMatchesGatherOracle).

// gatherGroupBy answers GroupBy by gathering the source view onto one
// rank and scanning it.
func (c *Cube) gatherGroupBy(dims []string, filters map[string]uint32, pct float64) (*View, error) {
	if _, err := c.in.viewOf(dims); err != nil {
		return nil, err
	}
	// A filter may restrict a grouped dimension (the query is "group by
	// store where store = 3"), so filter dims must be deduplicated
	// against the group dims before forming the needed view — naively
	// appending both lists makes viewOf reject the repeat.
	grouped := make(map[string]bool, len(dims))
	for _, name := range dims {
		grouped[name] = true
	}
	filterDims := make([]string, 0, len(filters))
	for name := range filters {
		if !grouped[name] {
			filterDims = append(filterDims, name)
		}
	}
	need, err := c.in.viewOf(append(append([]string{}, dims...), filterDims...))
	if err != nil {
		return nil, err // repeated or unknown dimension
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
	srcOrder := vw.order
	filterCol := map[int]uint32{} // column -> required value
	for name, val := range filters {
		one, err := c.in.viewOf([]string{name})
		if err != nil {
			return nil, err
		}
		dim := one.Dims()[0]
		for col, d := range srcOrder {
			if d == dim {
				filterCol[col] = val
			}
		}
	}
	outCols := make([]int, len(dims)) // result column -> source column
	for k, name := range dims {
		one, err := c.in.viewOf([]string{name})
		if err != nil {
			return nil, err
		}
		dim := one.Dims()[0]
		for col, d := range srcOrder {
			if d == dim {
				outCols[k] = col
			}
		}
	}

	// Filter + project + re-aggregate.
	proj := record.New(len(dims), 0)
	key := make([]uint32, len(dims))
	for i := 0; i < vw.rows.Len(); i++ {
		match := true
		for col, val := range filterCol {
			if vw.rows.Dim(i, col) != val {
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
	}
	agg, release := c.scratchAgg()
	defer release()
	out := record.SortAggregateAgg(proj, agg)
	if agg.State != nil {
		for i := 0; i < out.Len(); i++ {
			out.SetMeas(i, c.resolveMeasure(out.Meas(i), pct))
		}
	}
	return &View{
		Attributes: append([]string(nil), dims...),
		Estimated:  c.op.Holistic(),
		order:      queryOrder(c, dims),
		rows:       out,
	}, nil
}

// smallestSuperset returns the materialized view with the fewest rows
// containing all of need's dimensions. Ties on row count break to the
// smaller ViewID, so the choice is deterministic regardless of map
// iteration order (and matches the engine's planner).
func (c *Cube) smallestSuperset(need lattice.ViewID) (lattice.ViewID, error) {
	c.topoMu.RLock()
	defer c.topoMu.RUnlock()
	best := lattice.ViewID(0)
	bestRows := int64(-1)
	for v := range c.orders {
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

// gatherRangeAggregate answers RangeAggregate by gathering the source
// view onto one rank and scanning it.
func (c *Cube) gatherRangeAggregate(dims []string, lo, hi []uint32) (int64, error) {
	want, err := c.in.viewOf(dims)
	if err != nil {
		return 0, err
	}
	src, err := c.smallestSuperset(want)
	if err != nil {
		return 0, err
	}
	vw, ok := c.gather(src)
	if !ok {
		return 0, fmt.Errorf("rolap: view retired while gathering; retry")
	}
	srcOrder := vw.order
	// Map each queried dim to its source column and bounds.
	type bound struct {
		col    int
		lo, hi uint32
	}
	bounds := make([]bound, len(dims))
	for k, name := range dims {
		one, err := c.in.viewOf([]string{name})
		if err != nil {
			return 0, err
		}
		dim := one.Dims()[0]
		for col, d := range srcOrder {
			if d == dim {
				bounds[k] = bound{col: col, lo: lo[k], hi: hi[k]}
			}
		}
	}
	agg, release := c.scratchAgg()
	defer release()
	var acc int64
	first := true
	for i := 0; i < vw.rows.Len(); i++ {
		ok := true
		for _, b := range bounds {
			v := vw.rows.Dim(i, b.col)
			if v < b.lo || v > b.hi {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		if first {
			acc = vw.rows.Meas(i)
			first = false
		} else {
			acc = agg.Combine(acc, vw.rows.Meas(i))
		}
	}
	if first {
		return 0, nil
	}
	return c.resolveMeasure(agg.Seal(acc), defaultPercentile), nil
}

// scratchAgg returns the aggregate descriptor for a gather-path merge:
// on holistic cubes the combine runs in a scratch sketch shard, dropped
// by the returned release func once every handle is resolved.
func (c *Cube) scratchAgg() (record.Agg, func()) {
	agg := record.Agg{Op: c.op}
	if c.sketch == nil {
		return agg, func() {}
	}
	sc := c.sketch.Scratch()
	agg.State = sc
	return agg, func() { c.sketch.ReleaseScratch(sc) }
}

// resolveMeasure serves one measure word: identity on algebraic
// cubes, sketch estimate (at rank q for Quantile) on holistic ones.
func (c *Cube) resolveMeasure(m int64, q float64) int64 {
	if c.sketch == nil {
		return m
	}
	return c.sketch.EstimateMeasure(m, q)
}
