package record

import (
	"strings"
	"testing"
)

// TestAggOpsExhaustive is the op-switch guard: adding a new AggOp
// without updating AggOps(), String, Holistic, and Combine must fail
// here rather than silently falling through to sum somewhere downstream
// (make lint-aggop greps the serve/merge switches; this test pins the
// package-level contract).
func TestAggOpsExhaustive(t *testing.T) {
	t.Parallel()
	ops := AggOps()
	if len(ops) == 0 {
		t.Fatal("AggOps is empty")
	}
	seen := map[AggOp]bool{}
	for i, op := range ops {
		if int(op) != i {
			t.Fatalf("AggOps()[%d] = %d; the list must cover the consts in declaration order", i, int(op))
		}
		if seen[op] {
			t.Fatalf("AggOps lists %v twice", op)
		}
		seen[op] = true
		if s := op.String(); strings.HasPrefix(s, "AggOp(") {
			t.Errorf("op %d has no String case", int(op))
		}
		// Holistic must classify every listed op without panicking.
		holistic := op.Holistic()

		if holistic {
			// A holistic op combined without sketch state must panic, not
			// silently produce a wrong scalar.
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("holistic op %v combined without state did not panic", op)
					}
				}()
				op.Combine(1, 2)
			}()
			continue
		}
		// Algebraic ops must combine associatively and commutatively.
		vals := []int64{-7, 0, 3, 12}
		for _, a := range vals {
			for _, b := range vals {
				if op.Combine(a, b) != op.Combine(b, a) {
					t.Errorf("%v not commutative at (%d,%d)", op, a, b)
				}
				for _, c := range vals {
					if op.Combine(op.Combine(a, b), c) != op.Combine(a, op.Combine(b, c)) {
						t.Errorf("%v not associative at (%d,%d,%d)", op, a, b, c)
					}
				}
			}
		}
	}
	// The list itself must be complete: the next integer after the last
	// listed op must be unknown to String (else a const was added without
	// extending AggOps, and every range-over-AggOps guard goes blind).
	next := AggOp(len(ops))
	if s := next.String(); !strings.HasPrefix(s, "AggOp(") {
		t.Fatalf("op %d (%s) has a String case but is missing from AggOps()", int(next), s)
	}
}

// TestAggSealAndStateBytesAlgebraic pins the algebraic fast path: an
// Agg without a StateCombiner is the bare operator (identity Seal,
// zero state bytes).
func TestAggSealAndStateBytesAlgebraic(t *testing.T) {
	t.Parallel()
	a := Agg{Op: OpSum}
	if got := a.Combine(2, 3); got != 5 {
		t.Fatalf("Combine = %d", got)
	}
	if got := a.Seal(-42); got != -42 {
		t.Fatalf("Seal = %d", got)
	}
	if got := a.StateBytes(-42); got != 0 {
		t.Fatalf("StateBytes = %d", got)
	}
	tb := FromRows(1, [][]uint32{{1}, {2}}, []int64{5, -9})
	if got := a.TableStateBytes(tb); got != 0 {
		t.Fatalf("TableStateBytes = %d", got)
	}
}

// fakeCombiner counts calls so aggregation paths can be audited for
// seal-on-emit: every emitted accumulator must be sealed exactly once.
type fakeCombiner struct {
	sealed   map[int64]bool
	combines int
	next     int64
}

func newFakeCombiner() *fakeCombiner { return &fakeCombiner{sealed: map[int64]bool{}, next: -1} }

func (f *fakeCombiner) Combine(a, b int64) int64 {
	f.combines++
	if a < 0 && !f.sealed[a] {
		return a // open accumulator absorbs in place
	}
	h := f.next
	f.next--
	return h
}

func (f *fakeCombiner) Seal(h int64) int64 {
	if h < 0 {
		f.sealed[h] = true
	}
	return h
}

func (f *fakeCombiner) StateBytes(h int64) int {
	if h < 0 {
		return 16
	}
	return 0
}

// TestAggregateSealsOnEmit verifies the aggregation and merge paths
// seal every combined accumulator before it reaches the output table —
// the invariant that makes emitted tables safe to store, ship, and
// share.
func TestAggregateSealsOnEmit(t *testing.T) {
	t.Parallel()
	check := func(name string, out *Table, f *fakeCombiner) {
		t.Helper()
		for i := 0; i < out.Len(); i++ {
			if m := out.Meas(i); m < 0 && !f.sealed[m] {
				t.Fatalf("%s: row %d emitted unsealed accumulator %d", name, i, m)
			}
		}
	}

	// Runs of 3, 1, 2 rows.
	mk := func() *Table {
		return FromRows(1,
			[][]uint32{{1}, {1}, {1}, {2}, {3}, {3}},
			[]int64{10, 11, 12, 20, 30, 31})
	}
	f := newFakeCombiner()
	out := AggregateSortedAgg(mk(), 1, Agg{Op: OpDistinct, State: f})
	if out.Len() != 3 {
		t.Fatalf("AggregateSortedAgg rows = %d", out.Len())
	}
	check("AggregateSortedAgg", out, f)
	if out.Meas(1) != 20 {
		t.Fatalf("singleton run must keep its raw measure, got %d", out.Meas(1))
	}

	f = newFakeCombiner()
	a := FromRows(1, [][]uint32{{1}, {2}, {4}}, []int64{1, 2, 4})
	b := FromRows(1, [][]uint32{{1}, {3}, {4}}, []int64{5, 3, 6})
	out = MergeSortedAggregateAgg([]*Table{a, b}, Agg{Op: OpDistinct, State: f})
	if out.Len() != 4 {
		t.Fatalf("MergeSortedAggregateAgg rows = %d", out.Len())
	}
	check("MergeSortedAggregateAgg", out, f)
}
