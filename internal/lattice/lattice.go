// Package lattice models the data-cube lattice of the paper (Figure
// 1a): the 2^d views (group-bys) of a d-dimensional raw data set,
// together with the Di-partition decomposition of Figure 3 and the
// schedule trees (Figure 1b,c) that drive top-down cube construction.
//
// Dimensions are indexed 0..d-1 in decreasing cardinality order
// (|D0| >= |D1| >= ... >= |Dd-1|), as the paper assumes w.l.o.g. View
// identifiers list their dimensions in that order, so "the view ACD"
// for d=4 is the bitmask {0,2,3}. The Di-partition Si is the set of
// views whose leading (highest-cardinality) dimension is Di, and the
// Di-root is the view on all of Di..Dd-1.
package lattice

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxDims bounds the dimensionality: a full cube has 2^d views, so
// anything beyond this is impractical to materialize anyway.
const MaxDims = 24

// ViewID identifies a view (group-by) as a bitmask over dimensions;
// bit i set means dimension Di participates. The zero value is the
// "all" view (total aggregation over no group-by attributes).
type ViewID uint32

// Empty is the "all" view.
const Empty ViewID = 0

// Full returns the view over all d dimensions (the raw data set's
// schema).
func Full(d int) ViewID {
	checkDims(d)
	return ViewID(1<<uint(d)) - 1
}

func checkDims(d int) {
	if d < 1 || d > MaxDims {
		panic(fmt.Sprintf("lattice: dimensionality %d out of range 1..%d", d, MaxDims))
	}
}

// Has reports whether dimension i participates in the view.
func (v ViewID) Has(i int) bool { return v&(1<<uint(i)) != 0 }

// Add returns the view with dimension i added.
func (v ViewID) Add(i int) ViewID { return v | 1<<uint(i) }

// Remove returns the view with dimension i removed.
func (v ViewID) Remove(i int) ViewID { return v &^ (1 << uint(i)) }

// Count returns the number of participating dimensions (the view's
// level in the lattice).
func (v ViewID) Count() int { return bits.OnesCount32(uint32(v)) }

// SubsetOf reports whether every dimension of v is in u, i.e. v is
// computable from u by aggregation.
func (v ViewID) SubsetOf(u ViewID) bool { return v&^u == 0 }

// Dims returns the participating dimension indices in ascending order
// (which is decreasing cardinality order, the canonical identifier
// order).
func (v ViewID) Dims() []int {
	out := make([]int, 0, v.Count())
	for w := uint32(v); w != 0; w &= w - 1 {
		out = append(out, bits.TrailingZeros32(w))
	}
	return out
}

// Leading returns the view's leading dimension (its lowest set index,
// i.e. the highest-cardinality participating dimension), or -1 for the
// empty view. The leading dimension determines which Di-partition owns
// the view.
func (v ViewID) Leading() int {
	if v == 0 {
		return -1
	}
	return bits.TrailingZeros32(uint32(v))
}

// String renders the view with letters A..Z per dimension ("ACD"), or
// "all" for the empty view.
func (v ViewID) String() string {
	if v == 0 {
		return "all"
	}
	var sb strings.Builder
	for _, i := range v.Dims() {
		sb.WriteByte(byte('A' + i))
	}
	return sb.String()
}

// ParseView parses the String form back into a ViewID ("all" or letter
// sequences such as "ACD").
func ParseView(s string) (ViewID, error) {
	if s == "all" {
		return Empty, nil
	}
	var v ViewID
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 'A' || c > 'A'+MaxDims-1 {
			return 0, fmt.Errorf("lattice: bad view %q: character %q", s, c)
		}
		v = v.Add(int(c - 'A'))
	}
	return v, nil
}

// AllViews returns all 2^d views of a d-dimensional cube, in ascending
// ViewID order.
func AllViews(d int) []ViewID {
	checkDims(d)
	out := make([]ViewID, 0, 1<<uint(d))
	for v := ViewID(0); v < 1<<uint(d); v++ {
		out = append(out, v)
	}
	return out
}

// Root returns the Di-root: the view on all dimensions Di..Dd-1, the
// coarsest view from which every view of the Di-partition is
// computable.
func Root(i, d int) ViewID {
	checkDims(d)
	if i < 0 || i >= d {
		panic(fmt.Sprintf("lattice: partition index %d out of range 0..%d", i, d-1))
	}
	return Full(d) &^ (ViewID(1<<uint(i)) - 1)
}

// Partition returns Si, the views of the Di-partition: all views whose
// leading dimension is Di. The last partition (i == d-1) additionally
// owns the empty ("all") view, as in the paper's Figure 3. Views are
// returned in ascending ViewID order; the Di-root is always included.
func Partition(i, d int) []ViewID {
	checkDims(d)
	if i < 0 || i >= d {
		panic(fmt.Sprintf("lattice: partition index %d out of range 0..%d", i, d-1))
	}
	var out []ViewID
	if i == d-1 {
		out = append(out, Empty)
	}
	// Views containing Di and nothing below it: Di plus any subset of
	// Di+1..Dd-1.
	rest := Root(i, d).Remove(i).Dims()
	for mask := 0; mask < 1<<uint(len(rest)); mask++ {
		v := ViewID(0).Add(i)
		for b, dim := range rest {
			if mask&(1<<uint(b)) != 0 {
				v = v.Add(dim)
			}
		}
		out = append(out, v)
	}
	sortViews(out)
	return out
}

// PartitionOf returns the index of the partition owning view v in a
// d-dimensional cube.
func PartitionOf(v ViewID, d int) int {
	if v == 0 {
		return d - 1
	}
	return v.Leading()
}

// PartitionSubset returns the members of sel that belong to the
// Di-partition (the redefinition of Si for partial cubes, §3).
func PartitionSubset(i, d int, sel []ViewID) []ViewID {
	var out []ViewID
	for _, v := range sel {
		if PartitionOf(v, d) == i {
			out = append(out, v)
		}
	}
	sortViews(out)
	return out
}

func sortViews(vs []ViewID) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}
