package gen

import (
	"fmt"
	"sort"
)

// QueryMix draws query keys with Zipf(alpha) popularity over a key
// space {0..keys-1}: a flash-crowd workload where a handful of hot
// keys dominate. Like the row generator it is counter-based — Key(i)
// is a pure function of (seed, i) — so any number of query workers can
// replay the same stream, and a chaos run and its fault-free control
// issue identical queries.
type QueryMix struct {
	cdf  []float64
	seed int64
}

// NewQueryMix builds a query mix over keys keys with Zipf skew alpha
// (alpha = 0 is uniform). It panics on an invalid shape (mixes are
// code, not user input).
func NewQueryMix(keys int, alpha float64, seed int64) *QueryMix {
	if keys < 1 {
		panic(fmt.Sprintf("gen: query mix needs at least one key, got %d", keys))
	}
	if alpha < 0 {
		panic(fmt.Sprintf("gen: query mix has negative skew %v", alpha))
	}
	return &QueryMix{cdf: zipfCDF(keys, alpha), seed: seed}
}

// Keys returns the key-space size.
func (m *QueryMix) Keys() int { return len(m.cdf) }

// queryDomain separates the query stream's hash domain from the row
// generator's, so a mix and a data set sharing a seed stay independent.
const queryDomain = uint64(0x51) << 56

// Key returns the i-th query's key (0-based stream position).
func (m *QueryMix) Key(i int) int {
	h := splitmix64(uint64(m.seed)<<20 ^ uint64(i)*0x9e3779b97f4a7c15 ^ queryDomain)
	u := float64(h>>11) / float64(1<<53)
	k := sort.SearchFloat64s(m.cdf, u)
	if k >= len(m.cdf) {
		k = len(m.cdf) - 1
	}
	return k
}

// HotMass returns the probability mass of the top-n hottest keys
// (keys 0..n-1), the expected fraction of queries a cache holding
// those keys absorbs.
func (m *QueryMix) HotMass(n int) float64 {
	if n <= 0 {
		return 0
	}
	if n >= len(m.cdf) {
		return 1
	}
	return m.cdf[n-1]
}
