package record

import "sync"

// ColRange restricts column Col to the inclusive range [Lo, Hi]; an
// equality filter is Lo == Hi.
type ColRange struct {
	Col    int
	Lo, Hi uint32
}

// selPool recycles the row-selection vectors of FilterProjectAggregate:
// one per scanned slice per query, as long as the slice. Allocated
// afresh per call, they cost serve-scan a quarter of its query
// throughput on a 2-core host.
var selPool = sync.Pool{New: func() any { return new([]int32) }}

// FilterProjectAggregate is the local half of a scatter–gather query:
// keep the rows of t inside every bound, project them onto cols (t's
// columns, in result order) and aggregate equal keys with agg. It
// returns the sorted, duplicate-free result and the number of rows that
// passed the filter.
//
// The filter runs a column at a time: the first bound scans its column
// into a selection of row indexes and each further bound narrows the
// selection. t must be sorted on its first len(cols) columns whenever
// cols is a permutation of them (t is a view slice, stored sorted in
// its attribute order): the selected rows of one group are then
// adjacent, so they are aggregated in one pass without a sort, and only
// the aggregated rows are sorted into cols order. Any other projection
// is gathered into an exactly sized table, sorted and aggregated.
func FilterProjectAggregate(t *Table, bounds []ColRange, cols []int, agg Agg) (*Table, int) {
	kept := t.Len()
	var sel []int32
	if len(bounds) > 0 {
		buf := selPool.Get().(*[]int32)
		defer selPool.Put(buf)
		if cap(*buf) < kept {
			*buf = make([]int32, 0, kept)
		}
		sel = selectRows(t, bounds, *buf)
		kept = len(sel)
	}
	// row maps the k-th kept row to its index in t.
	filtered := len(bounds) > 0
	row := func(k int) int {
		if filtered {
			return int(sel[k])
		}
		return k
	}
	prefix, identity := prefixCols(cols)
	if !prefix {
		proj, dims, meas := Alloc(len(cols), kept)
		for k := 0; k < kept; k++ {
			i := row(k)
			for j, c := range cols {
				dims[k*len(cols)+j] = t.dims[i*t.D+c]
			}
			meas[k] = t.meas[i]
			if t.state != nil {
				proj.SetState(k, t.state[i])
			}
		}
		return SortAggregateAgg(proj, agg), kept
	}
	out := New(len(cols), 0)
	if kept == 0 {
		return out, 0
	}
	emit := func(start int, run *Run) {
		base := start * t.D
		for _, c := range cols {
			out.dims = append(out.dims, t.dims[base+c])
		}
		out.push(run)
	}
	start := row(0)
	run := agg.Start(t, start)
	for k := 1; k < kept; k++ {
		i := row(k)
		if t.Compare(start, i, len(cols)) == 0 {
			agg.Add(&run, t, i)
			continue
		}
		emit(start, &run)
		start, run = i, agg.Start(t, i)
	}
	emit(start, &run)
	if !identity {
		out.Sort()
	}
	return out, kept
}

// selectRows returns the indexes of t's rows inside every bound, in
// sel's storage (cap(sel) >= t.Len()): one pass over the first bound's
// column, then one pass over the survivors per further bound. A value v
// is inside [lo, hi] iff v-lo <= hi-lo in uint32 arithmetic. Each pass
// writes every candidate and advances past it only if it matched, a
// conditional increment rather than a branch on data the predictor
// cannot guess.
func selectRows(t *Table, bounds []ColRange, sel []int32) []int32 {
	n, d := t.Len(), t.D
	sel = sel[:n]
	b := bounds[0]
	span, m := b.Hi-b.Lo, 0
	for i, k := 0, b.Col; i < n; i, k = i+1, k+d {
		sel[m] = int32(i)
		inc := 0
		if t.dims[k]-b.Lo <= span {
			inc = 1
		}
		m += inc
	}
	sel = sel[:m]
	for _, b := range bounds[1:] {
		span, m := b.Hi-b.Lo, 0
		for _, i := range sel {
			sel[m] = i
			inc := 0
			if t.dims[int(i)*d+b.Col]-b.Lo <= span {
				inc = 1
			}
			m += inc
		}
		sel = sel[:m]
	}
	return sel
}

// prefixCols reports whether cols is a permutation of 0..len(cols)-1
// and whether it is that identity itself.
func prefixCols(cols []int) (prefix, identity bool) {
	var seen uint64
	identity = true
	for j, c := range cols {
		if c < 0 || c >= len(cols) || c >= 64 || seen&(1<<c) != 0 {
			return false, false
		}
		seen |= 1 << c
		identity = identity && c == j
	}
	return true, identity
}
