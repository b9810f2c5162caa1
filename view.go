package rolap

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/record"
	"repro/internal/sketch"
)

// View is one materialized group-by, gathered from the processors'
// disks into a single sorted, duplicate-free relation.
type View struct {
	// Attributes lists the view's dimensions (user names) in the
	// materialized column order.
	Attributes []string
	// Estimated marks measures served from mergeable sketches
	// (CountDistinct / Quantile cubes): values are estimates, exact
	// only while the per-group state stayed under the sketch's exact
	// threshold.
	Estimated bool
	order     lattice.Order
	rows      *record.Table
}

// Views returns the names of the materialized views, each a sorted
// list of dimension names ("[]" is the grand total), in deterministic
// order.
func (c *Cube) Views() [][]string {
	views := c.engine.Topology().Views()
	out := make([][]string, 0, len(views))
	for _, v := range views {
		names := c.in.namesOf(lattice.Canonical(v))
		sort.Strings(names)
		out = append(out, names)
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i]) != len(out[j]) {
			return len(out[i]) < len(out[j])
		}
		return strings.Join(out[i], ",") < strings.Join(out[j], ",")
	})
	return out
}

// Processors returns the size of the machine the cube lives on: the
// one it was built on, or for a loaded snapshot the same-sized one it
// was placed on.
func (c *Cube) Processors() int { return c.machine.P() }

// lookup resolves a dimension-name set to a materialized ViewID.
func (c *Cube) lookup(dims []string) (lattice.ViewID, error) {
	v, err := c.in.viewOf(dims)
	if err != nil {
		return 0, err
	}
	if _, ok := c.engine.Topology().Order(v); !ok {
		return 0, fmt.Errorf("rolap: view %v not materialized", dims)
	}
	return v, nil
}

// View gathers the named view (a set of dimension names; empty for the
// grand total) from all processors into one relation. On a holistic
// cube the measures are served estimates (distinct counts, or the
// median for Quantile cubes) and Estimated is set.
func (c *Cube) View(dims []string) (*View, error) {
	v, err := c.lookup(dims)
	if err != nil {
		return nil, err
	}
	vw, ok := c.gather(v)
	if !ok {
		return nil, fmt.Errorf("rolap: view %v not materialized", dims)
	}
	return c.resolveView(vw, defaultPercentile), nil
}

// defaultPercentile is the rank Quantile cubes serve when the caller
// does not pick one (the median).
const defaultPercentile = 0.5

// resolveView replaces each group's sketch with its served estimate in
// a gathered view (whose rows are the gather's private copy).
func (c *Cube) resolveView(vw *View, q float64) *View {
	if !c.op.Holistic() {
		return vw
	}
	sketch.Resolve(c.op, vw.rows, q)
	vw.Estimated = true
	return vw
}

// gather collects view v from all processors. It reports false when
// the view is not (or no longer) materialized — the advisor can
// retire a view between a lookup and the gather, and reading the
// order under the maintenance lock guarantees the order and the
// slices belong to the same topology.
func (c *Cube) gather(v lattice.ViewID) (*View, bool) {
	var order lattice.Order
	found := false
	var rows *record.Table
	read := func() error {
		order, found = c.engine.Topology().Order(v)
		if !found {
			return nil
		}
		rows = c.gatherViewRaw(v)
		return nil
	}
	// Serialize against incremental ingest and online materialization:
	// a gather sees either the pre-batch or post-batch slices, never a
	// mixture.
	c.engine.Maintain(read)
	if !found {
		return nil, false
	}
	return &View{
		Attributes: c.in.namesOf(order),
		order:      order,
		rows:       rows,
	}, true
}

// gatherViewRaw reads view v's slices into one table directly off the
// processors' disks; the caller holds the engine's maintenance section.
func (c *Cube) gatherViewRaw(v lattice.ViewID) *record.Table {
	rows := record.New(v.Count(), 0)
	for r := 0; r < c.machine.P(); r++ {
		if t, ok := c.machine.Proc(r).Disk().Get(core.ViewFile(v)); ok {
			rows.AppendTable(t)
		}
	}
	return rows
}

// Len returns the view's row (group) count.
func (v *View) Len() int { return v.rows.Len() }

// Row returns group i's attribute values (in Attributes order) and its
// aggregated measure.
func (v *View) Row(i int) ([]uint32, int64) {
	return v.rows.RowCopy(i), v.rows.Meas(i)
}

// Aggregate returns the measure of the group with the given attribute
// values (in Attributes order), and whether it exists.
func (v *View) Aggregate(key []uint32) (int64, bool) {
	if len(key) != v.rows.D {
		return 0, false
	}
	i := record.LowerBound(v.rows, key)
	if i < v.rows.Len() && record.CompareRowKey(v.rows, i, key) == 0 {
		return v.rows.Meas(i), true
	}
	return 0, false
}

// viewRowCount reads a view's current global row count for planning,
// under the metrics lock (ingest updates the counts in place).
func (c *Cube) viewRowCount(v lattice.ViewID) int64 {
	c.metMu.RLock()
	defer c.metMu.RUnlock()
	return c.metrics.ViewRows[viewName(c.in, v)]
}

// viewName renders a ViewID as the canonical sorted-name key used in
// Metrics.ViewRows.
func viewName(in *Input, v lattice.ViewID) string {
	names := in.namesOf(lattice.Canonical(v))
	sort.Strings(names)
	return strings.Join(names, ",")
}
