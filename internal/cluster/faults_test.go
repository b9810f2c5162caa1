package cluster

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/record"
)

// payloadTables builds one small table per destination, tagged by
// (src, dst) so mixed-up deliveries are detectable.
func payloadTables(p *Proc, rows int) []*record.Table {
	out := make([]*record.Table, p.P())
	for k := range out {
		tb := record.New(2, rows)
		for i := 0; i < rows; i++ {
			tb.Append([]uint32{uint32(p.Rank()), uint32(k)}, int64(i))
		}
		out[k] = tb
	}
	return out
}

func checkDeliveries(t *testing.T, p *Proc, in []*record.Table, rows int) {
	t.Helper()
	for j, tb := range in {
		if tb.Len() != rows {
			t.Errorf("rank %d from %d: %d rows, want %d", p.Rank(), j, tb.Len(), rows)
		}
		for i := 0; i < tb.Len(); i++ {
			if tb.Dim(i, 0) != uint32(j) || tb.Dim(i, 1) != uint32(p.Rank()) {
				t.Errorf("rank %d from %d: row %d mislabelled (%d,%d)",
					p.Rank(), j, i, tb.Dim(i, 0), tb.Dim(i, 1))
			}
		}
	}
}

func TestSetFaultsValidates(t *testing.T) {
	m := newMachine(3)
	bad := &faults.Plan{Crashes: []faults.Crash{{Rank: 7}}}
	if err := m.SetFaults(bad); err == nil {
		t.Fatal("expected validation error for out-of-range rank")
	}
	if m.faults != nil {
		t.Fatal("invalid plan must not be installed")
	}
}

func TestInjectedCrashReturnsCrashError(t *testing.T) {
	m := newMachine(4)
	plan := &faults.Plan{Crashes: []faults.Crash{{Rank: 2, Superstep: 2}}}
	if err := m.SetFaults(plan); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(p *Proc) {
			Barrier(p)
			Barrier(p)
			Barrier(p)
		})
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked after injected crash")
	}
	var crash *faults.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("want *faults.CrashError, got %v", err)
	}
	if crash.Rank != 2 || crash.Superstep != 2 {
		t.Fatalf("crash = %+v, want rank 2 superstep 2", crash)
	}
	if !strings.Contains(crash.Error(), "processor 2") {
		t.Fatalf("error %q does not name the rank", crash.Error())
	}
	// The crash fires at most once: a second run completes.
	if err := m.Run(func(p *Proc) { Barrier(p); Barrier(p); Barrier(p) }); err != nil {
		t.Fatalf("second run after one-shot crash: %v", err)
	}
}

func TestDroppedPayloadsAreRetriedAndCharged(t *testing.T) {
	const rows = 50
	run := func(plan *faults.Plan) (*Machine, float64) {
		m := newMachine(3)
		if plan != nil {
			if err := m.SetFaults(plan); err != nil {
				t.Fatal(err)
			}
		}
		err := m.Run(func(p *Proc) {
			in := AllToAllTables(p, payloadTables(p, rows))
			checkDeliveries(t, p, in, rows)
		})
		if err != nil {
			t.Fatal(err)
		}
		return m, m.SimSeconds()
	}

	_, clean := run(nil)
	m, faulty := run(&faults.Plan{
		Seed:  7,
		Drops: []faults.PayloadFault{{Src: 0, Dst: 1, Exchange: 0, Times: 2}},
	})

	if got := m.Stats().Retried; got != 2 {
		t.Fatalf("Retried = %d, want 2", got)
	}
	if faulty <= clean {
		t.Fatalf("retries must cost time: faulty %.6fs <= clean %.6fs", faulty, clean)
	}
}

func TestCorruptedPayloadsAreRepaired(t *testing.T) {
	const rows = 40
	m := newMachine(2)
	plan := &faults.Plan{
		Seed:        11,
		Corruptions: []faults.PayloadFault{{Src: 1, Dst: 0, Exchange: 0}},
	}
	if err := m.SetFaults(plan); err != nil {
		t.Fatal(err)
	}
	err := m.Run(func(p *Proc) {
		in := AllToAllTables(p, payloadTables(p, rows))
		checkDeliveries(t, p, in, rows)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().Retried; got != 1 {
		t.Fatalf("Retried = %d, want 1", got)
	}
}

func TestStragglerSlowsLocalWorkOnly(t *testing.T) {
	m := newMachine(2)
	plan := &faults.Plan{Stragglers: []faults.Straggler{{Rank: 1, Factor: 3}}}
	if err := m.SetFaults(plan); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(func(p *Proc) { p.Clock().AddCompute(1e9) }); err != nil {
		t.Fatal(err)
	}
	fast := m.Proc(0).Clock().Seconds()
	slow := m.Proc(1).Clock().Seconds()
	if slow < fast*2.9 || slow > fast*3.1 {
		t.Fatalf("straggler clock %.4fs, want ~3x %.4fs", slow, fast)
	}
	// Uninstalling resets the slowdown.
	if err := m.SetFaults(nil); err != nil {
		t.Fatal(err)
	}
	before := m.Proc(1).Clock().Seconds()
	if err := m.Run(func(p *Proc) { p.Clock().AddCompute(1e9) }); err != nil {
		t.Fatal(err)
	}
	d0 := m.Proc(0).Clock().Seconds() - fast
	d1 := m.Proc(1).Clock().Seconds() - before
	if d1 > d0*1.01 {
		t.Fatalf("slowdown not reset: rank 1 charged %.4fs vs rank 0 %.4fs", d1, d0)
	}
}

func TestShrinkRenumbersAndPreservesState(t *testing.T) {
	m := newMachine(4)
	for r := 0; r < 4; r++ {
		tb := record.New(1, 1)
		tb.Append([]uint32{uint32(r)}, int64(r))
		m.Proc(r).Disk().Put("tag", tb)
	}
	if err := m.Shrink(1); err != nil {
		t.Fatal(err)
	}
	if m.P() != 3 {
		t.Fatalf("P() = %d after Shrink, want 3", m.P())
	}
	wantOrig := []int{0, 2, 3}
	for r := 0; r < 3; r++ {
		if got := m.Proc(r).orig; got != wantOrig[r] {
			t.Fatalf("rank %d orig = %d, want %d", r, got, wantOrig[r])
		}
		tb := m.Proc(r).Disk().MustGet("tag")
		if tb.Dim(0, 0) != uint32(wantOrig[r]) {
			t.Fatalf("rank %d disk carries tag %d, want %d", r, tb.Dim(0, 0), wantOrig[r])
		}
	}
	if got := m.RankOf(1); got != -1 {
		t.Fatalf("RankOf(1) = %d, want -1 for removed processor", got)
	}
	if got := m.RankOf(3); got != 2 {
		t.Fatalf("RankOf(3) = %d, want 2", got)
	}
	// The shrunken machine still runs collectives.
	err := m.Run(func(p *Proc) {
		in := AllToAllTables(p, payloadTables(p, 5))
		checkDeliveries(t, p, in, 5)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Shrink(9); err == nil {
		t.Fatal("expected error for out-of-range shrink rank")
	}
}

func TestCrashAtPhaseAndEpoch(t *testing.T) {
	m := newMachine(3)
	plan := &faults.Plan{Crashes: []faults.Crash{{Rank: 0, Dimension: 1, Phase: "merge"}}}
	if err := m.SetFaults(plan); err != nil {
		t.Fatal(err)
	}
	err := m.Run(func(p *Proc) {
		for dim := 0; dim < 3; dim++ {
			p.SetEpoch(dim)
			p.SetPhase("partition")
			Barrier(p)
			p.SetPhase("merge")
			Barrier(p)
		}
	})
	var crash *faults.CrashError
	if !errors.As(err, &crash) {
		t.Fatalf("want *faults.CrashError, got %v", err)
	}
	if crash.Rank != 0 || crash.Dimension != 1 || crash.Phase != "merge" {
		t.Fatalf("crash = %+v, want rank 0 dimension 1 phase merge", crash)
	}
}
