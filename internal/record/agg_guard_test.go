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
// Agg without a StateCombiner folds the bare operator, opens nothing,
// and leaves its output without a state column (zero state bytes).
func TestAggSealAndStateBytesAlgebraic(t *testing.T) {
	t.Parallel()
	a := Agg{Op: OpSum}
	tb := FromRows(1, [][]uint32{{1}, {1}, {2}}, []int64{2, 3, -9})
	r := a.Start(tb, 0)
	a.Add(&r, tb, 1)
	r.Seal()
	if r.Meas != 5 || r.Blob != nil {
		t.Fatalf("run = %+v, want measure 5 and no blob", r)
	}
	out := AggregateSortedAgg(tb, 1, a)
	if out.Meas(0) != 5 || out.Meas(1) != -9 || out.state != nil || out.StateBytes() != 0 {
		t.Fatalf("algebraic aggregate %v carries state", out)
	}
}

// countingCombiner seals a group as the count of the rows absorbed and
// counts the accumulators it opens and seals, so aggregation paths can
// be audited for seal-on-emit.
type countingCombiner struct{ opened, sealed int }

type countingAcc struct {
	c *countingCombiner
	n int
}

func (c *countingCombiner) Open() Accumulator { c.opened++; return &countingAcc{c: c} }

func (a *countingAcc) Absorb(meas int64, blob []byte) {
	if blob == nil {
		a.n++
		return
	}
	a.n += int(blob[0])
}

func (a *countingAcc) Seal() []byte { a.c.sealed++; return []byte{byte(a.n)} }

// TestAggregateSealsOnEmit verifies the aggregation and merge paths
// seal every accumulator they open into the output row's blob before
// returning — the invariant that makes emitted tables safe to store,
// ship, and share, and keeps open state inside the pass that owns it —
// while a run of one row keeps its raw measure and no blob.
func TestAggregateSealsOnEmit(t *testing.T) {
	t.Parallel()
	check := func(name string, out *Table, c *countingCombiner, want []int) {
		t.Helper()
		if c.opened != c.sealed {
			t.Fatalf("%s: opened %d accumulators, sealed %d", name, c.opened, c.sealed)
		}
		if out.Len() != len(want) {
			t.Fatalf("%s: %d rows, want %d", name, out.Len(), len(want))
		}
		for i, n := range want {
			b := out.State(i)
			switch {
			case n == 1 && b != nil:
				t.Fatalf("%s: singleton row %d got a blob", name, i)
			case n > 1 && (len(b) != 1 || int(b[0]) != n || out.Meas(i) != 0):
				t.Fatalf("%s: row %d sealed %v (measure %d), want a count of %d", name, i, b, out.Meas(i), n)
			}
		}
	}

	// Runs of 3, 1, 2 rows.
	mk := func() *Table {
		return FromRows(1,
			[][]uint32{{1}, {1}, {1}, {2}, {3}, {3}},
			[]int64{10, 11, 12, 20, 30, 31})
	}
	c := &countingCombiner{}
	out := AggregateSortedAgg(mk(), 1, Agg{Op: OpDistinct, State: c})
	check("AggregateSortedAgg", out, c, []int{3, 1, 2})
	if out.Meas(1) != 20 {
		t.Fatalf("singleton run must keep its raw measure, got %d", out.Meas(1))
	}

	// Merging sealed rows absorbs their blobs: key 1 folds the 3-row
	// group above with one more fact.
	c = &countingCombiner{}
	a := out
	b := FromRows(1, [][]uint32{{1}, {3}, {4}}, []int64{5, 3, 6})
	out = MergeSortedAggregateAgg([]*Table{a, b}, Agg{Op: OpDistinct, State: c})
	check("MergeSortedAggregateAgg", out, c, []int{4, 1, 3, 1})
}
