// Package record provides the relational substrate for ROLAP cube
// construction: d-dimensional records with a single additive measure,
// stored in flat row-major tables, together with comparators over
// attribute orders and adjacent-duplicate agglomeration.
//
// A Table with D columns models a relation whose rows are tuples of D
// uint32 dimension values plus one int64 measure. Views of a data cube
// are themselves Tables whose columns are exactly the view's attributes,
// laid out in the view's attribute order. A Table does not know which
// cube dimensions its columns correspond to; that mapping lives in the
// lattice package.
//
// The sort-dominated hot paths run on packed-key kernels (key.go,
// radix.go, losertree.go): per-column bit widths pack a row into one
// or two machine words (KeyPlan), sorting is an LSD radix sort over
// (key, rowIdx) pairs followed by one permutation gather, and k-way
// merges run a loser tree on packed keys. Keys wider than 128 bits
// (and tables under radixMinRows) take the comparison sort and the
// heap merge instead. The choice changes wall-clock time only: every
// simulated charge is a function of row counts, and both paths produce
// the same aggregated relation, which the in-package tests assert.
package record

import (
	"fmt"
	"sort"
	"strings"
)

// DimBytes is the on-disk/on-wire width of one dimension value. The
// paper's data sets use 4-byte dimension encodings (2M rows x 8 dims +
// measure = 72 MB), which RowBytes reproduces.
const DimBytes = 4

// MeasBytes is the on-disk/on-wire width of the measure.
const MeasBytes = 4

// RowBytes returns the modelled size in bytes of one row with d
// dimension columns. It is used for all disk and network accounting so
// that simulated volumes match the paper's (36-byte rows at d=8).
func RowBytes(d int) int { return DimBytes*d + MeasBytes }

// Table is a relation of rows with D uint32 dimension columns and one
// int64 measure column, stored row-major in flat slices. The zero value
// is unusable; construct with New.
type Table struct {
	// D is the number of dimension columns per row.
	D    int
	dims []uint32 // len = n*D, row-major
	meas []int64  // len = n
}

// New returns an empty table with d dimension columns and capacity for
// capRows rows.
func New(d, capRows int) *Table {
	if d < 0 {
		panic(fmt.Sprintf("record: negative column count %d", d))
	}
	return &Table{
		D:    d,
		dims: make([]uint32, 0, capRows*d),
		meas: make([]int64, 0, capRows),
	}
}

// FromRows builds a table from explicit rows; each row must have d
// dimension values. Measures are set to meas[i] if provided, else 1.
// Intended for tests and examples.
func FromRows(d int, rows [][]uint32, meas []int64) *Table {
	t := New(d, len(rows))
	for i, r := range rows {
		if len(r) != d {
			panic(fmt.Sprintf("record: row %d has %d values, want %d", i, len(r), d))
		}
		m := int64(1)
		if meas != nil {
			m = meas[i]
		}
		t.Append(r, m)
	}
	return t
}

// Len returns the number of rows.
func (t *Table) Len() int { return len(t.meas) }

// Bytes returns the modelled byte size of the whole table.
func (t *Table) Bytes() int { return t.Len() * RowBytes(t.D) }

// Dim returns dimension column j of row i.
func (t *Table) Dim(i, j int) uint32 { return t.dims[i*t.D+j] }

// Meas returns the measure of row i.
func (t *Table) Meas(i int) int64 { return t.meas[i] }

// SetMeas overwrites the measure of row i.
func (t *Table) SetMeas(i int, m int64) { t.meas[i] = m }

// AddMeas adds delta to the measure of row i.
func (t *Table) AddMeas(i int, delta int64) { t.meas[i] += delta }

// Row returns a copy-free view of row i's dimension values. The slice
// aliases the table; callers must not retain it across mutations.
func (t *Table) Row(i int) []uint32 { return t.dims[i*t.D : i*t.D+t.D] }

// RowCopy returns a fresh copy of row i's dimension values.
func (t *Table) RowCopy(i int) []uint32 {
	r := make([]uint32, t.D)
	copy(r, t.Row(i))
	return r
}

// Append adds a row with the given dimension values and measure.
func (t *Table) Append(dims []uint32, meas int64) {
	if len(dims) != t.D {
		panic(fmt.Sprintf("record: appending %d values to %d-column table", len(dims), t.D))
	}
	t.dims = append(t.dims, dims...)
	t.meas = append(t.meas, meas)
}

// AppendFrom appends row i of src (which must have the same column
// count) to t.
func (t *Table) AppendFrom(src *Table, i int) {
	if src.D != t.D {
		panic(fmt.Sprintf("record: appending from %d-column table to %d-column table", src.D, t.D))
	}
	t.dims = append(t.dims, src.Row(i)...)
	t.meas = append(t.meas, src.meas[i])
}

// AppendRange appends rows [lo,hi) of src to t.
func (t *Table) AppendRange(src *Table, lo, hi int) {
	if src.D != t.D {
		panic(fmt.Sprintf("record: appending from %d-column table to %d-column table", src.D, t.D))
	}
	t.dims = append(t.dims, src.dims[lo*src.D:hi*src.D]...)
	t.meas = append(t.meas, src.meas[lo:hi]...)
}

// AppendTable appends all rows of src to t.
func (t *Table) AppendTable(src *Table) { t.AppendRange(src, 0, src.Len()) }

// Reset truncates the table to zero rows, retaining capacity.
func (t *Table) Reset() {
	t.dims = t.dims[:0]
	t.meas = t.meas[:0]
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := New(t.D, t.Len())
	c.dims = append(c.dims, t.dims...)
	c.meas = append(c.meas, t.meas...)
	return c
}

// Sub returns a deep copy of rows [lo,hi), for handing rows to a new
// owner that may mutate them.
func (t *Table) Sub(lo, hi int) *Table {
	c := New(t.D, hi-lo)
	c.AppendRange(t, lo, hi)
	return c
}

// Window returns a read-only alias of rows [lo,hi) that shares t's
// storage. Its capacity ends at hi, so an append to the window
// reallocates and never writes into t, and an append to t lands beyond
// the window. Neither may be mutated in place while the other is in
// use: a window is how a rank hands a key range to an exchange or a
// merge without copying it.
func (t *Table) Window(lo, hi int) *Table {
	if lo < 0 || hi > t.Len() || lo > hi {
		panic(fmt.Sprintf("record: window [%d,%d) out of range for %d rows", lo, hi, t.Len()))
	}
	return &Table{
		D:    t.D,
		dims: t.dims[lo*t.D : hi*t.D : hi*t.D],
		meas: t.meas[lo:hi:hi],
	}
}

// Cap returns the number of rows the table can hold before an append
// reallocates.
func (t *Table) Cap() int {
	if t.D > 0 && cap(t.dims)/t.D < cap(t.meas) {
		return cap(t.dims) / t.D
	}
	return cap(t.meas)
}

// Project returns a new table whose columns are the given columns of t,
// in the given order, preserving row order and measures. cols indexes
// t's columns. It is how a coarser view's tuple layout is derived from a
// finer one before aggregation; it runs under every Pipesort sort edge,
// so the output is preallocated at exact capacity and filled by index
// rather than per-element append.
func (t *Table) Project(cols []int) *Table {
	for _, c := range cols {
		if c < 0 || c >= t.D {
			panic(fmt.Sprintf("record: project column %d out of range 0..%d", c, t.D-1))
		}
	}
	n := t.Len()
	k := len(cols)
	out := New(k, n)
	out.dims = out.dims[:n*k]
	out.meas = out.meas[:n]
	for i := 0; i < n; i++ {
		base := i * t.D
		obase := i * k
		for j, c := range cols {
			out.dims[obase+j] = t.dims[base+c]
		}
	}
	copy(out.meas, t.meas)
	return out
}

// Swap exchanges rows i and j.
func (t *Table) Swap(i, j int) {
	if i == j {
		return
	}
	a, b := i*t.D, j*t.D
	for k := 0; k < t.D; k++ {
		t.dims[a+k], t.dims[b+k] = t.dims[b+k], t.dims[a+k]
	}
	t.meas[i], t.meas[j] = t.meas[j], t.meas[i]
}

// Compare lexicographically compares rows i and j of t on the first k
// columns, returning -1, 0, or +1.
func (t *Table) Compare(i, j, k int) int {
	a, b := i*t.D, j*t.D
	for c := 0; c < k; c++ {
		switch {
		case t.dims[a+c] < t.dims[b+c]:
			return -1
		case t.dims[a+c] > t.dims[b+c]:
			return 1
		}
	}
	return 0
}

// CompareTables lexicographically compares row i of a with row j of b on
// the first k columns. Both tables must have at least k columns with the
// same semantics.
func CompareTables(a *Table, i int, b *Table, j, k int) int {
	for c := 0; c < k; c++ {
		av, bv := a.dims[i*a.D+c], b.dims[j*b.D+c]
		switch {
		case av < bv:
			return -1
		case av > bv:
			return 1
		}
	}
	return 0
}

// CompareRowKey compares row i of t against a key on the first
// min(len(key), k) columns.
func CompareRowKey(t *Table, i int, key []uint32) int {
	base := i * t.D
	k := len(key)
	if k > t.D {
		k = t.D
	}
	for c := 0; c < k; c++ {
		switch {
		case t.dims[base+c] < key[c]:
			return -1
		case t.dims[base+c] > key[c]:
			return 1
		}
	}
	return 0
}

// CompareKeys lexicographically compares two keys; a shorter key that is
// a prefix of the longer compares less.
func CompareKeys(a, b []uint32) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for c := 0; c < n; c++ {
		switch {
		case a[c] < b[c]:
			return -1
		case a[c] > b[c]:
			return 1
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	}
	return 0
}

// sorter adapts Table to sort.Interface over all columns.
type sorter struct{ t *Table }

func (s sorter) Len() int           { return s.t.Len() }
func (s sorter) Swap(i, j int)      { s.t.Swap(i, j) }
func (s sorter) Less(i, j int) bool { return s.t.Compare(i, j, s.t.D) < 0 }

// Sort sorts the table in place lexicographically over all columns.
//
// When the rows pack into fixed-width integer keys
// (MeasureKeyPlan/KeyPlan), sorting runs the LSD radix kernel: pack
// one key per row, radix sort (key, rowIdx) pairs, and reorder dims
// and meas with a single gather (ApplyPermutation) instead of
// O(n log n) multi-word swaps. Unpackable rows and tiny tables take
// the comparison sort. Callers charge simulated time via
// costmodel.SortOps regardless of the path taken — the kernels change
// wall-clock time only.
func (t *Table) Sort() {
	t.SortWithPlan(KeyPlan{}, false)
}

// SortWithPlan is Sort with a caller-supplied key plan (e.g. built
// from schema cardinalities with PlanKeyFromCards); when havePlan is
// false the plan is measured from the data. The plan must cover every
// value in the table or the packed order would be wrong.
func (t *Table) SortWithPlan(kp KeyPlan, havePlan bool) {
	n := t.Len()
	if n <= 1 {
		return
	}
	if n >= radixMinRows && t.D > 0 {
		if !havePlan {
			kp = MeasureKeyPlan(t)
		}
		if kp.Cols() == t.D && kp.Packable() {
			t.sortRadix(kp)
			return
		}
	}
	sort.Sort(sorter{t})
}

// IsSorted reports whether the table is sorted over all columns.
func (t *Table) IsSorted() bool { return sort.IsSorted(sorter{t}) }

// Equal reports whether a and b have identical shape and contents.
func Equal(a, b *Table) bool {
	if a.D != b.D || a.Len() != b.Len() {
		return false
	}
	for i := range a.dims {
		if a.dims[i] != b.dims[i] {
			return false
		}
	}
	for i := range a.meas {
		if a.meas[i] != b.meas[i] {
			return false
		}
	}
	return true
}

// TotalMeasure returns the sum of all measures, an invariant preserved
// by every aggregation step.
func (t *Table) TotalMeasure() int64 {
	var s int64
	for _, m := range t.meas {
		s += m
	}
	return s
}

// String renders the table for debugging; large tables are elided.
func (t *Table) String() string {
	var sb strings.Builder
	n := t.Len()
	fmt.Fprintf(&sb, "Table{d=%d n=%d", t.D, n)
	limit := n
	if limit > 16 {
		limit = 16
	}
	for i := 0; i < limit; i++ {
		fmt.Fprintf(&sb, " %v:%d", t.Row(i), t.meas[i])
	}
	if n > limit {
		sb.WriteString(" ...")
	}
	sb.WriteString("}")
	return sb.String()
}

// LowerBound returns the first row index i in sorted table t with
// row(i) >= key on the key's columns (prefix compare).
func LowerBound(t *Table, key []uint32) int {
	return sort.Search(t.Len(), func(i int) bool { return CompareRowKey(t, i, key) >= 0 })
}

// UpperBound returns the first row index i in sorted table t with
// row(i) > key on the key's columns.
func UpperBound(t *Table, key []uint32) int {
	return sort.Search(t.Len(), func(i int) bool { return CompareRowKey(t, i, key) > 0 })
}
