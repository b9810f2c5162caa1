package record

import "fmt"

// AggOp is the aggregate operator applied to measures when rows with
// equal keys are combined. The algebraic operators (sum/min/max) are
// associative and commutative over the raw int64 measure, which the
// distributed merge relies on: partial aggregates computed on
// different processors combine in any order. (COUNT is OpSum over unit
// measures; AVG is derivable from a SUM cube plus a COUNT cube, per
// Gray et al.'s algebraic-aggregate classification.)
//
// The holistic operators (distinct-count, quantile) cannot be combined
// through a bare int64: their per-group state is a mergeable sketch
// held in a sketch store, and the measure word is either a raw value
// (>= 0, an implicit singleton) or a negative handle into the store.
// Holistic combines therefore go through an Agg carrying a
// StateCombiner; calling Combine on a bare holistic AggOp panics.
type AggOp int

const (
	// OpSum adds measures (the default; also COUNT with measure 1).
	OpSum AggOp = iota
	// OpMin keeps the minimum measure.
	OpMin
	// OpMax keeps the maximum measure.
	OpMax
	// OpDistinct counts distinct raw measure values per group
	// (holistic; served as an estimate from a mergeable sketch).
	OpDistinct
	// OpQuantile tracks the distribution of raw measure values per
	// group (holistic; percentiles are served as estimates from a
	// mergeable sketch).
	OpQuantile
)

// AggOps lists every operator, in declaration order. Exhaustiveness
// tests range over it so a new operator cannot be added without every
// op switch (and this list) being updated in the same change.
func AggOps() []AggOp {
	return []AggOp{OpSum, OpMin, OpMax, OpDistinct, OpQuantile}
}

// Holistic reports whether the operator's per-group state is a
// mergeable sketch rather than the bare measure word. Holistic
// measures flow through Agg (operator + StateCombiner); every path
// that combines, ships, or serves measures must consult this.
func (op AggOp) Holistic() bool {
	switch op {
	case OpSum, OpMin, OpMax:
		return false
	case OpDistinct, OpQuantile:
		return true
	}
	panic(fmt.Sprintf("record: unknown aggregate operator %d", int(op)))
}

func (op AggOp) String() string {
	switch op {
	case OpSum:
		return "sum"
	case OpMin:
		return "min"
	case OpMax:
		return "max"
	case OpDistinct:
		return "distinct"
	case OpQuantile:
		return "quantile"
	}
	return fmt.Sprintf("AggOp(%d)", int(op))
}

// Combine merges two partial aggregates of an algebraic operator.
// Holistic operators panic: their state lives in a sketch store and
// must be combined through an Agg with a StateCombiner.
func (op AggOp) Combine(a, b int64) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMin:
		if b < a {
			return b
		}
		return a
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpDistinct, OpQuantile:
		panic(fmt.Sprintf("record: holistic operator %v combined without a state combiner", op))
	}
	panic(fmt.Sprintf("record: unknown aggregate operator %d", int(op)))
}

// StateCombiner combines measure words whose state lives outside the
// table — the sketch store's per-rank view of itself. A measure word
// is either a raw value (>= 0, an implicit singleton sketch) or a
// negative handle naming a sketch in the store.
//
// Combine may mutate and return an open accumulator it owns; Seal
// freezes an accumulator into its canonical serialized form (identity
// on raw words and already-sealed handles) and MUST be called on every
// measure before it is written to disk, shipped, or shared — open
// state is private to the combining pass. StateBytes reports the extra
// wire/disk bytes the word's sketch state occupies beyond the measure
// word itself (0 for raw words), which communication charging adds to
// row bytes for honest h-relation accounting.
type StateCombiner interface {
	Combine(a, b int64) int64
	Seal(h int64) int64
	StateBytes(h int64) int
}

// Agg pairs an operator with the state combiner holistic operators
// need. The zero State is valid for algebraic operators; constructing
// an Agg for a holistic operator without State panics at first use.
type Agg struct {
	Op    AggOp
	State StateCombiner
}

// Combine merges two partial aggregates.
func (a Agg) Combine(x, y int64) int64 {
	if a.State != nil {
		return a.State.Combine(x, y)
	}
	return a.Op.Combine(x, y)
}

// Seal freezes x if it is an open sketch accumulator; identity for
// algebraic operators and raw/sealed words.
func (a Agg) Seal(x int64) int64 {
	if a.State != nil {
		return a.State.Seal(x)
	}
	return x
}

// StateBytes reports the sketch payload bytes of measure word x
// (0 for algebraic operators and raw words).
func (a Agg) StateBytes(x int64) int {
	if a.State != nil {
		return a.State.StateBytes(x)
	}
	return 0
}

// TableStateBytes sums the sketch payload bytes of every measure in t
// (0 for algebraic aggregates) — the honest extra volume a shipped or
// stored table carries beyond its row bytes.
func (a Agg) TableStateBytes(t *Table) int {
	if a.State == nil || t == nil {
		return 0
	}
	total := 0
	for i, n := 0, t.Len(); i < n; i++ {
		total += a.State.StateBytes(t.Meas(i))
	}
	return total
}

// AggregateSortedAggInto collapses runs of adjacent rows of t that are
// equal on the first k columns, emitting one row per run into out with
// the run's combined measure, sealed. t must be sorted on its first k
// columns; out must have k columns.
func AggregateSortedAggInto(t *Table, k int, out *Table, agg Agg) {
	if out.D != k {
		panic(fmt.Sprintf("record: aggregate output has %d columns, want %d", out.D, k))
	}
	n := t.Len()
	if n == 0 {
		return
	}
	runStart := 0
	acc := t.meas[0]
	combined := false
	for i := 1; i < n; i++ {
		if t.Compare(runStart, i, k) == 0 {
			acc = agg.Combine(acc, t.meas[i])
			combined = true
			continue
		}
		out.dims = append(out.dims, t.dims[runStart*t.D:runStart*t.D+k]...)
		if combined {
			acc = agg.Seal(acc)
		}
		out.meas = append(out.meas, acc)
		runStart = i
		acc = t.meas[i]
		combined = false
	}
	out.dims = append(out.dims, t.dims[runStart*t.D:runStart*t.D+k]...)
	if combined {
		acc = agg.Seal(acc)
	}
	out.meas = append(out.meas, acc)
}

// CountRuns returns the number of runs of adjacent rows of t that are
// equal on the first k columns: the row count AggregateSortedAggInto
// emits for t sorted on those columns, so callers can size its output.
func CountRuns(t *Table, k int) int {
	n := t.Len()
	if n == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < n; i++ {
		if t.Compare(i-1, i, k) != 0 {
			runs++
		}
	}
	return runs
}

// AggregateSortedAgg is AggregateSortedAggInto with a fresh output.
func AggregateSortedAgg(t *Table, k int, agg Agg) *Table {
	out := New(k, 0)
	AggregateSortedAggInto(t, k, out, agg)
	return out
}

// AggregateSortedOp is AggregateSortedAgg for algebraic operators (no
// sketch state).
func AggregateSortedOp(t *Table, k int, op AggOp) *Table {
	return AggregateSortedAgg(t, k, Agg{Op: op})
}

// SortAggregateAgg sorts t and collapses full-row duplicates.
func SortAggregateAgg(t *Table, agg Agg) *Table {
	t.Sort()
	return AggregateSortedAgg(t, t.D, agg)
}

// MergeSortedAggregateAgg merges sorted tables and collapses full-row
// duplicates. Each input must already be sorted; the inputs may contain
// rows equal to rows of other inputs (but are not required to be
// internally duplicate-free).
func MergeSortedAggregateAgg(tables []*Table, agg Agg) *Table {
	return mergeSortedAgg(tables, true, agg)
}

// MergeSortedAggregateOp merges sorted tables collapsing duplicates
// with op.
func MergeSortedAggregateOp(tables []*Table, op AggOp) *Table {
	return mergeSortedAgg(tables, true, Agg{Op: op})
}
