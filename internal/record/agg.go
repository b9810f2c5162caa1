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
// through a bare int64: a group's state is a mergeable sketch, sealed
// into the table's state column next to the row (a row that is one raw
// fact has no blob; its measure word is the value). Holistic combines
// therefore go through an Agg carrying a StateCombiner; calling
// Combine on a bare holistic AggOp panics.
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
// Holistic operators panic: their state is a sketch and must be
// combined through an Agg with a StateCombiner.
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

// StateCombiner is the holistic half of an Agg: it opens the
// accumulators a combining pass folds a group's rows into. The sketch
// package implements it; record only moves the sealed blobs.
type StateCombiner interface {
	Open() Accumulator
}

// Accumulator is one group's open sketch state. It belongs to the pass
// that combines the group and never leaves it: the pass seals it into
// the output row's state column on emit, so every table that is
// stored, shipped or shared holds sealed blobs only.
type Accumulator interface {
	// Absorb folds one row in: its sealed blob, or for a row without
	// one, its raw measure word as a singleton.
	Absorb(meas int64, blob []byte)
	// Seal returns the canonical blob of everything absorbed.
	Seal() []byte
}

// Agg pairs an operator with the state combiner holistic operators
// need. The zero State is valid for algebraic operators; a holistic
// Agg without State panics at its first combine.
type Agg struct {
	Op    AggOp
	State StateCombiner
}

// Run is one group of an aggregating pass: the measure word and blob
// of its first row, folded with every further row of the group by Add.
// Algebraic operators fold into Meas; a holistic group opens an
// accumulator when its second row arrives, and Seal turns it into the
// group's blob.
type Run struct {
	Meas int64
	Blob []byte
	acc  Accumulator
}

// Start opens a run at row i of t.
func (a Agg) Start(t *Table, i int) Run { return Run{Meas: t.meas[i], Blob: t.State(i)} }

// Add folds row i of t into r.
func (a Agg) Add(r *Run, t *Table, i int) { a.AddWord(r, t.meas[i], t.State(i)) }

// AddWord folds one measure word and its blob (nil for a raw word)
// into r.
func (a Agg) AddWord(r *Run, meas int64, blob []byte) {
	if a.State == nil {
		r.Meas = a.Op.Combine(r.Meas, meas)
		return
	}
	if r.acc == nil {
		r.acc = a.State.Open()
		r.acc.Absorb(r.Meas, r.Blob)
	}
	r.acc.Absorb(meas, blob)
}

// Seal closes r's accumulator, if it opened one, into its blob. A run
// of one row keeps its row's word and blob as they were.
func (r *Run) Seal() {
	if r.acc != nil {
		r.Meas, r.Blob, r.acc = 0, r.acc.Seal(), nil
	}
}

// SetRun seals r and writes it as the measure (and blob) of row i.
func (t *Table) SetRun(i int, r *Run) {
	r.Seal()
	t.meas[i] = r.Meas
	t.SetState(i, r.Blob)
}

// AppendRun appends a row with the given dimension values and r,
// sealed, as its measure.
func (t *Table) AppendRun(dims []uint32, r *Run) {
	if len(dims) != t.D {
		panic(fmt.Sprintf("record: appending %d values to %d-column table", len(dims), t.D))
	}
	t.dims = append(t.dims, dims...)
	t.push(r)
}

// push seals r and appends it as the measure of the row whose
// dimension values were just appended.
func (t *Table) push(r *Run) {
	r.Seal()
	t.meas = append(t.meas, r.Meas)
	if r.Blob != nil || t.state != nil {
		t.appendState(r.Blob)
	}
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
	run := agg.Start(t, 0)
	for i := 1; i < n; i++ {
		if t.Compare(runStart, i, k) == 0 {
			agg.Add(&run, t, i)
			continue
		}
		out.dims = append(out.dims, t.dims[runStart*t.D:runStart*t.D+k]...)
		out.push(&run)
		runStart = i
		run = agg.Start(t, i)
	}
	out.dims = append(out.dims, t.dims[runStart*t.D:runStart*t.D+k]...)
	out.push(&run)
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
