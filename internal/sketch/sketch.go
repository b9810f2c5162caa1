// Package sketch is the mergeable-measure subsystem backing the
// holistic aggregate operators (distinct-count, quantile). A holistic
// measure cannot be combined through a bare int64 the way sum/min/max
// can: its per-group state is a sketch — a small summary of the
// multiset of raw measure values absorbed by the group — that supports
// lossless merging. Sketches live in a Store; tables carry either raw
// measure values (>= 0, implicit singletons) or negative handles into
// the store, so the record-layer kernels move holistic state with the
// same 8-byte measure word they already move.
//
// Both sketch kinds are order-insensitive monoids: the state is a pure
// function of the absorbed multiset, independent of insertion order
// and merge tree shape. That property is what makes the distributed
// build deterministic — the radix/loser-tree and comparison/heap
// paths visit runs in different orders, yet seal bit-identical blobs.
package sketch

// Kind selects which holistic measure a store's sketches track. A
// store holds sketches of exactly one kind; the aggregate operator of
// the cube determines it.
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

// Defaults for Config fields left zero.
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
	// DefaultArenaBudget bounds the decoded-sketch arena of a store
	// (bytes); sealed sketches past it are spilled to their serialized
	// blobs and re-decoded on demand.
	DefaultArenaBudget = 1 << 20
)

// Config sizes a Store's sketches and its decoded-state arena.
type Config struct {
	// Kind selects distinct-count or quantile sketches.
	Kind Kind
	// FMBitmaps is the PCSA bitmap count (power of two) used by
	// distinct sketches once past ExactThreshold.
	FMBitmaps int
	// ExactThreshold is the distinct-value count up to which distinct
	// sketches stay exact.
	ExactThreshold int
	// MaxBuckets bounds quantile histogram size before compaction.
	MaxBuckets int
	// ArenaBudget bounds decoded sealed-sketch bytes kept resident;
	// open accumulators are charged against it but never evicted, so
	// the budget throttles cache, not correctness.
	ArenaBudget int
}

// WithDefaults fills zero fields with package defaults.
func (c Config) WithDefaults() Config {
	if c.FMBitmaps == 0 {
		c.FMBitmaps = DefaultFMBitmaps
	}
	if c.ExactThreshold == 0 {
		c.ExactThreshold = DefaultExactThreshold
	}
	if c.MaxBuckets == 0 {
		c.MaxBuckets = DefaultMaxBuckets
	}
	if c.ArenaBudget == 0 {
		c.ArenaBudget = DefaultArenaBudget
	}
	return c
}

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
	// Bytes is the serialized size, maintained in O(1).
	Bytes() int
	// AppendBinary appends the canonical serialized form to dst.
	AppendBinary(dst []byte) []byte
	// Clone returns an independent deep copy.
	Clone() Mergeable
}
