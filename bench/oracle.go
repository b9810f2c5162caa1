package main

import (
	"fmt"

	rolap "repro"
)

// table is the oracle's model of the cube's contents: every row the
// program was given (base rows, then each batch's), column-wise, in
// dictionary codes.
type table struct {
	cols  [][]uint32
	meas  []int64
	cards []int
	// index[j][c] lists the base rows whose dimension j has code c, so
	// that evaluating a query reads only the rows inside its narrowest
	// bound.
	index [][][]int32
}

// buildIndex indexes the base rows [0, n).
func (t *table) buildIndex(n int) {
	t.index = make([][][]int32, len(t.cols))
	for j, col := range t.cols {
		t.index[j] = make([][]int32, t.cards[j])
		for r := 0; r < n; r++ {
			t.index[j][col[r]] = append(t.index[j][col[r]], int32(r))
		}
	}
}

// answer is what a query must return. Scalar queries (point and range
// aggregates) answer sum; a group-by answers groups, keyed by the
// mixed-radix number of the grouped codes. rows and sum are kept for
// every version so that a timed call can be checked in constant time;
// groups only for the versions the verify pass compares in full.
type answer struct {
	rows   int
	sum    int64
	groups map[uint64]int64
}

// groupKey folds the grouped dimensions' codes into one number.
func (t *table) groupKey(group []int, code func(k int) uint32) uint64 {
	var key uint64
	for k, j := range group {
		key = key*uint64(t.cards[j]) + uint64(code(k))
	}
	return key
}

// add puts row r into the query's answer if it is inside every bound:
// the definition of a filtered group-by, one row at a time.
func (t *table) add(q *query, r int, a *answer) {
	for _, b := range q.bounds {
		if v := t.cols[b.dim][r]; v < b.lo || v > b.hi {
			return
		}
	}
	a.sum += t.meas[r]
	if q.kind == kindGroupBy {
		a.groups[t.groupKey(q.group, func(k int) uint32 { return t.cols[q.group[k]][r] })] += t.meas[r]
		a.rows = len(a.groups)
	}
}

// addBase puts the base rows into the answer, reading only those the
// index lists under the query's narrowest bound.
func (t *table) addBase(q *query, a *answer) {
	best, least := q.bounds[0], -1
	for _, b := range q.bounds {
		rows := 0
		for c := b.lo; c <= b.hi; c++ {
			rows += len(t.index[b.dim][c])
		}
		if least < 0 || rows < least {
			best, least = b, rows
		}
	}
	for c := best.lo; c <= best.hi; c++ {
		for _, r := range t.index[best.dim][c] {
			t.add(q, int(r), a)
		}
	}
}

// answer evaluates every query after 0, 1, ..., batches batches, where
// the base rows are [0, n) and batch b is the next batchRows rows.
func (t *table) answer(qs []query, n, batches, batchRows int) [][]answer {
	out := make([][]answer, batches+1)
	for v := range out {
		out[v] = make([]answer, len(qs))
	}
	for i := range qs {
		q := &qs[i]
		var a answer
		if q.kind == kindGroupBy {
			a.groups = map[uint64]int64{}
		}
		t.addBase(q, &a)
		out[0][i] = a
		if q.kind == kindGroupBy && batches > 0 {
			// The live map moves on with the batches; version 0 keeps a copy.
			g := make(map[uint64]int64, len(a.groups))
			for k, m := range a.groups {
				g[k] = m
			}
			out[0][i].groups = g
		}
		for v := 1; v <= batches; v++ {
			for r := n + (v-1)*batchRows; r < n+v*batchRows; r++ {
				t.add(q, r, &a)
			}
			out[v][i] = a
			if v < batches {
				out[v][i].groups = nil
			}
		}
	}
	return out
}

// checkQuick is the constant-time check of a timed call: the value of
// a point or range aggregate, the group count of a group-by.
func (a *answer) checkQuick(q *query, v *rolap.View, val int64) error {
	switch {
	case q.kind != kindGroupBy && val != a.sum:
		return fmt.Errorf("aggregate is %d, oracle says %d", val, a.sum)
	case q.kind == kindGroupBy && v.Len() != a.rows:
		return fmt.Errorf("group-by has %d groups, oracle says %d", v.Len(), a.rows)
	}
	return nil
}

// check compares a whole answer with the oracle: every group of a group-by.
func (t *table) check(q *query, v *rolap.View, val int64, a *answer) error {
	if err := a.checkQuick(q, v, val); err != nil || q.kind != kindGroupBy {
		return err
	}
	for i := 0; i < v.Len(); i++ {
		key, m := v.Row(i)
		want, ok := a.groups[t.groupKey(q.group, func(k int) uint32 { return key[k] })]
		if !ok || want != m {
			return fmt.Errorf("group %v is %d, oracle says %d (present: %v)", key, m, want, ok)
		}
	}
	return nil
}
