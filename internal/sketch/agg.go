package sketch

import (
	"fmt"
	"math"

	"repro/internal/record"
)

// kindOf maps a holistic operator to the sketch kind that carries its
// state.
func kindOf(op record.AggOp) Kind {
	switch op {
	case record.OpDistinct:
		return KindDistinct
	case record.OpQuantile:
		return KindQuantile
	}
	panic(fmt.Sprintf("sketch: %v is not a holistic operator", op))
}

// Agg returns the aggregate descriptor for op: a holistic operator
// carries the combiner of its sketch kind, an algebraic one nothing.
func Agg(op record.AggOp) record.Agg {
	if !op.Holistic() {
		return record.Agg{Op: op}
	}
	return record.Agg{Op: op, State: combiner(kindOf(op))}
}

// combiner opens accumulators of one sketch kind; it implements
// record.StateCombiner and holds no state of its own.
type combiner Kind

// Open implements record.StateCombiner.
func (k combiner) Open() record.Accumulator {
	return &accumulator{kind: Kind(k), m: newSketch(Kind(k))}
}

// accumulator is one group's open sketch, owned by the pass that
// combines the group.
type accumulator struct {
	kind Kind
	m    Mergeable
}

// Absorb implements record.Accumulator: a raw word is inserted, a
// blob decoded and merged.
func (a *accumulator) Absorb(meas int64, blob []byte) {
	if blob == nil {
		a.m.Insert(meas)
		return
	}
	o, err := decode(a.kind, blob)
	if err != nil {
		panic(fmt.Sprintf("sketch: corrupt sealed sketch: %v", err))
	}
	a.m.Merge(o)
}

// Seal implements record.Accumulator.
func (a *accumulator) Seal() []byte { return a.m.AppendBinary(nil) }

// newSketch returns an empty sketch of kind k with the package
// parameters.
func newSketch(k Kind) Mergeable {
	switch k {
	case KindDistinct:
		return NewDistinct(DefaultExactThreshold, DefaultFMBitmaps)
	case KindQuantile:
		return NewQuantile(DefaultMaxBuckets)
	}
	panic(fmt.Sprintf("sketch: unknown kind %d", int(k)))
}

// decode reconstructs a sketch of kind k from its sealed blob.
func decode(k Kind, blob []byte) (Mergeable, error) {
	switch k {
	case KindDistinct:
		return distinctFromBinary(blob, DefaultExactThreshold, DefaultFMBitmaps)
	case KindQuantile:
		return quantileFromBinary(blob, DefaultMaxBuckets)
	}
	panic(fmt.Sprintf("sketch: unknown kind %d", int(k)))
}

// Check reports whether blob is a well-formed sealed sketch of op's
// kind, for loaders of untrusted state.
func Check(op record.AggOp, blob []byte) error {
	_, err := decode(kindOf(op), blob)
	return err
}

// Estimate serves one row of a holistic operator: a raw row (nil blob)
// is a singleton — distinct count 1, and its own value at every
// quantile — and a blob is served from its sketch (q is the quantile
// in [0, 1]; distinct counting ignores it).
func Estimate(op record.AggOp, meas int64, blob []byte, q float64) float64 {
	k := kindOf(op)
	if blob == nil {
		if k == KindDistinct {
			return 1
		}
		return float64(meas)
	}
	m, err := decode(k, blob)
	if err != nil {
		panic(fmt.Sprintf("sketch: corrupt sealed sketch: %v", err))
	}
	return m.Estimate(q)
}

// Resolve replaces every row's measure word with its served estimate,
// rounded, and drops the state column: what a query returns.
func Resolve(op record.AggOp, t *record.Table, q float64) {
	for i := 0; i < t.Len(); i++ {
		t.SetMeas(i, int64(math.Round(Estimate(op, t.Meas(i), t.State(i), q))))
	}
	t.DropState()
}
