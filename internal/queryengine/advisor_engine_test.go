package queryengine

import (
	"testing"

	"repro/internal/ingest"
	"repro/internal/lattice"
	"repro/internal/record"
)

// partialEngine builds a full cube but registers only the given views
// with the engine, so the others exist on disk yet are invisible to
// planning — the partial-cube serving setup the advisor mutates. It
// also returns every view's build order and the raw facts.
func partialEngine(t *testing.T, views []lattice.ViewID) (*Engine, map[lattice.ViewID]lattice.Order, *record.Table) {
	t.Helper()
	m, met, raw := buildTestCube(t, 3000, 4, 2, []int{16, 8, 6, 4})
	orders := map[lattice.ViewID]lattice.Order{}
	rows := map[lattice.ViewID]int64{}
	for _, v := range views {
		orders[v] = met.ViewOrders[v]
		rows[v] = met.ViewRows[v]
	}
	return New(m, orders, rows, record.OpSum), met.ViewOrders, raw
}

func TestDemandCounters(t *testing.T) {
	full := lattice.Full(4)
	sub := lattice.Full(4).Remove(3)
	e, _, _ := partialEngine(t, []lattice.ViewID{full, sub})

	run := func(group []int) {
		q, err := e.NewQuery(group, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	run([]int{0, 1, 2})    // exact hit on sub
	run([]int{0, 1, 2})    // again
	run([]int{0, 1, 2, 3}) // exact hit on full
	run([]int{0})          // fallback: {0} not materialized
	run([]int{0})          // fallback again

	d := e.DemandSnapshot()
	if got := d[sub]; got.Hits != 2 || got.Fallbacks != 0 {
		t.Fatalf("sub demand %+v, want 2 hits", got)
	}
	if got := d[full]; got.Hits != 1 {
		t.Fatalf("full demand %+v, want 1 hit", got)
	}
	want := lattice.Empty.Add(0)
	got := d[want]
	if got.Hits != 0 || got.Fallbacks != 2 {
		t.Fatalf("fallback target demand %+v, want 2 fallbacks", got)
	}
	if got.FallbackRows <= 0 {
		t.Fatalf("fallback target scanned no rows: %+v", got)
	}
	// Source-side attribution: sub served its own 2 hits plus the 2
	// fallbacks (it is the smallest superset of {0}); full served 1.
	if d[sub].SourceQueries != 4 {
		t.Fatalf("sub SourceQueries = %d, want 4", d[sub].SourceQueries)
	}
	if d[full].SourceQueries != 1 {
		t.Fatalf("full SourceQueries = %d, want 1", d[full].SourceQueries)
	}

	// Snapshots are copies: mutating one must not leak into the engine.
	d[sub] = ViewDemand{Hits: 999}
	if e.DemandSnapshot()[sub].Hits != 2 {
		t.Fatal("DemandSnapshot aliases engine state")
	}
}

func TestAddRemoveViewChangesPlanning(t *testing.T) {
	full := lattice.Full(4)
	sub := full.Remove(3)
	e, orders, _ := partialEngine(t, []lattice.ViewID{full})

	q, err := e.NewQuery([]int{0, 1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, m1, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Source != full {
		t.Fatalf("executed against %v before AddView, want %v", m1.Source, full)
	}

	// Register the sub-view (its slices already exist from the build);
	// the same query now executes against it and agrees.
	e.AddView(sub, orders[sub], e.Topology().Rows(full)) // row count only guides planning
	got, m2, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Source != sub {
		t.Fatalf("executed against %v after AddView, want %v", m2.Source, sub)
	}
	if !record.Equal(got, want) {
		t.Fatal("answer changed after AddView")
	}

	// Removing it sends execution back to the full view.
	e.RemoveView(sub)
	if _, m3, err := e.Execute(q); err != nil || m3.Source != full {
		t.Fatalf("executed against %v (%v) after RemoveView, want %v", m3.Source, err, full)
	}
	if vs := e.Topology().Views(); len(vs) != 1 || vs[0] != full {
		t.Fatalf("Views() = %v after remove", vs)
	}
}

// TestExecuteStalePlan: a Query made before the view set changes
// executes against the view set of its execution, never against the
// one it was made under.
func TestExecuteStalePlan(t *testing.T) {
	full := lattice.Full(4)
	sub := full.Remove(3)

	t.Run("source retired", func(t *testing.T) {
		e, _, raw := partialEngine(t, []lattice.ViewID{full, sub})
		q, err := e.NewQuery([]int{2, 0}, map[int][2]uint32{1: {1, 4}})
		if err != nil {
			t.Fatal(err)
		}
		if _, met, err := e.Execute(q); err != nil || met.Source != sub {
			t.Fatalf("executed against %v (%v), want %v", met.Source, err, sub)
		}
		e.RemoveView(sub)
		got, met, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if met.Source != full {
			t.Fatalf("executed against %v after retiring %v, want the surviving %v", met.Source, sub, full)
		}
		if want := oracle(raw, q, record.OpSum); !record.Equal(got, want) {
			t.Fatalf("answer after retirement differs from the oracle\ngot  %v\nwant %v", got, want)
		}
	})

	t.Run("source re-added under another order", func(t *testing.T) {
		e, orders, raw := partialEngine(t, []lattice.ViewID{full, sub})
		// An equality on the old leading dimension: the index answers it
		// under the old order, a residual filter under the new one.
		q, err := e.NewQuery([]int{orders[sub][2], orders[sub][1]}, map[int][2]uint32{orders[sub][0]: {3, 3}})
		if err != nil {
			t.Fatal(err)
		}
		before, _, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}

		// Retire sub and rebuild it from full with its first two
		// dimensions swapped, as the advisor would.
		reord := append(lattice.Order{}, orders[sub]...)
		reord[0], reord[1] = reord[1], reord[0]
		e.RemoveView(sub)
		ingest.RetireView(e.m, sub)
		res, err := ingest.MaterializeView(e.m, ingest.MaterializeOptions{
			Src: full, SrcOrder: orders[full], View: sub, Order: reord,
		})
		if err != nil {
			t.Fatal(err)
		}
		e.AddView(sub, reord, res.Rows)

		got, met, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if met.Source != sub {
			t.Fatalf("executed against %v, want the rebuilt %v", met.Source, sub)
		}
		want := oracle(raw, q, record.OpSum)
		if !record.Equal(got, want) || !record.Equal(before, want) {
			t.Fatalf("answer across the reorder differs from the oracle\nbefore %v\nafter  %v\nwant   %v", before, got, want)
		}
	})
}
