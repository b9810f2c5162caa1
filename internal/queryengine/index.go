package queryengine

import (
	"sort"

	"repro/internal/colstore"
	"repro/internal/costmodel"
)

// compareRowKey compares row i's leading columns against key,
// lexicographically, reading the sealed slice in place.
func compareRowKey(s *colstore.Slice, i int, key []uint32) int {
	for j, k := range key {
		if v := s.Dim(i, j); v != k {
			if v < k {
				return -1
			}
			return 1
		}
	}
	return 0
}

// Index is the sorted-prefix index of one processor's local slice of
// one materialized view. The slice is stored globally sorted in the
// view's attribute order, so an equality filter on a prefix of that
// order selects one contiguous run of rows. The index records the
// distinct values of the leading sort column with their row offsets (a
// sparse run directory); deeper prefix columns are resolved by binary
// search inside the run. Lookups return the run's row range so the
// executor reads and scans only those rows instead of the whole slice.
//
// Sealed slices are immutable, so an Index never invalidates. The
// slice reference is shared read-only with the owning disk.
type Index struct {
	rows *colstore.Slice
	d    int
	// vals[i] is the i-th distinct value of the leading sort column;
	// starts[i] is its first row. starts has one extra element, the
	// slice length, so run i spans rows [starts[i], starts[i+1]).
	vals   []uint32
	starts []int
}

// BuildIndexSlice builds the prefix index of a sealed columnar slice
// straight from its leading column's run directory — no decode, no
// full scan; the caller charges only the leading-column read. Deep
// prefix lookups binary-search the slice's columns in place.
func BuildIndexSlice(s *colstore.Slice) *Index {
	ix := &Index{rows: s, d: s.D()}
	if s.D() == 0 {
		return ix
	}
	ix.vals, ix.starts = s.LeadingRuns()
	return ix
}

// Runs returns the number of distinct leading-column values.
func (ix *Index) Runs() int { return len(ix.vals) }

// Lookup returns the row range [lo, hi) of slice rows matching the
// equality values eq on sort-order columns 0..len(eq)-1 and, when rng
// is non-nil, the inclusive range rng[0]..rng[1] on column len(eq).
// ops is the modelled comparison count of the binary searches, for the
// caller to charge on the simulated clock. At least one of eq and rng
// must be non-empty; a slice with no sort column matches nothing.
func (ix *Index) Lookup(eq []uint32, rng *[2]uint32) (lo, hi int, ops float64) {
	if ix.d == 0 || len(ix.vals) == 0 {
		return 0, 0, 0
	}
	if len(eq) == 0 {
		// Pure range on the leading column: bracket it in the run
		// directory.
		ops = 2 * costmodel.SearchOps(len(ix.vals))
		a := sort.Search(len(ix.vals), func(i int) bool { return ix.vals[i] >= rng[0] })
		b := sort.Search(len(ix.vals), func(i int) bool { return ix.vals[i] > rng[1] })
		return ix.starts[a], ix.starts[b], ops
	}
	// Equality prefix: locate the leading value's run, then binary
	// search the deeper prefix columns (and an optional trailing range)
	// inside it.
	ops = costmodel.SearchOps(len(ix.vals))
	r := sort.Search(len(ix.vals), func(i int) bool { return ix.vals[i] >= eq[0] })
	if r == len(ix.vals) || ix.vals[r] != eq[0] {
		return 0, 0, ops
	}
	runLo, runHi := ix.starts[r], ix.starts[r+1]
	if len(eq) == 1 && rng == nil {
		return runLo, runHi, ops
	}
	loKey := append([]uint32(nil), eq...)
	hiKey := append([]uint32(nil), eq...)
	if rng != nil {
		loKey = append(loKey, rng[0])
		hiKey = append(hiKey, rng[1])
	}
	n := runHi - runLo
	ops += 2 * costmodel.SearchOps(n)
	lo = runLo + sort.Search(n, func(i int) bool {
		return compareRowKey(ix.rows, runLo+i, loKey) >= 0
	})
	hi = runLo + sort.Search(n, func(i int) bool {
		return compareRowKey(ix.rows, runLo+i, hiKey) > 0
	})
	return lo, hi, ops
}
