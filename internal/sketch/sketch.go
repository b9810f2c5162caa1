// Package sketch is the mergeable-measure subsystem backing the
// holistic aggregate operators (distinct-count, quantile). A holistic
// measure cannot be combined through a bare int64 the way sum/min/max
// can: its per-group state is a sketch — a small summary of the
// multiset of raw measure values absorbed by the group — that supports
// lossless merging. A group's sketch is sealed into a blob in the
// table's state column, next to its row (record.Table); a row that is
// one raw fact has no blob, its measure word is the value. Agg hands
// the record kernels the accumulators they fold groups into, and a
// pass seals each accumulator into the row it emits, so state lives
// and dies with the slices that hold it.
//
// Both sketch kinds are order-insensitive monoids: the state is a pure
// function of the absorbed multiset, independent of insertion order
// and merge tree shape. That property is what makes the distributed
// build deterministic — the radix/loser-tree and comparison/heap
// paths visit runs in different orders, yet seal bit-identical blobs.
package sketch

// Kind selects which holistic measure a sketch tracks; the aggregate
// operator of the cube determines it.
type Kind int

const (
	// KindDistinct counts distinct raw measure values per group.
	KindDistinct Kind = iota
	// KindQuantile tracks the distribution of raw measure values per
	// group so arbitrary percentiles can be served.
	KindQuantile
)

func (k Kind) String() string {
	switch k {
	case KindDistinct:
		return "distinct"
	case KindQuantile:
		return "quantile"
	}
	return "unknown"
}

// Sketch parameters. They are fixed: a sealed blob is decoded with
// the parameters it was built with, so changing one is a format change.
const (
	// DefaultFMBitmaps is the PCSA bitmap count for distinct sketches
	// past the exact threshold (standard error ~ 0.78/sqrt(m) ≈ 2.4%).
	DefaultFMBitmaps = 1024
	// DefaultExactThreshold is the distinct-value count below which a
	// distinct sketch stores the exact value set (zero error). PCSA is
	// biased until roughly 4·m items, so the exact range is sized to
	// hand over where the (bias-corrected) FM estimate is already
	// trustworthy.
	DefaultExactThreshold = 4096
	// DefaultMaxBuckets bounds a quantile sketch's histogram; beyond
	// it the log-bucket resolution halves (KLL-style compaction).
	DefaultMaxBuckets = 4096
)

// Mergeable is one group's sketch state. Implementations must be
// order-insensitive monoids: any sequence of Insert and Merge calls
// absorbing the same multiset must yield the same serialized form.
type Mergeable interface {
	// Insert absorbs one raw measure value (>= 0).
	Insert(v int64)
	// Merge absorbs another sketch of the same kind and parameters.
	// The argument is read-only.
	Merge(o Mergeable)
	// Estimate serves the measure: the distinct-count estimate (q is
	// ignored) or the value at quantile q in [0, 1].
	Estimate(q float64) float64
	// AppendBinary appends the canonical serialized form to dst.
	AppendBinary(dst []byte) []byte
}
