package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/record"
)

// TestCommitBillsLikeRun records random per-rank work — disk reads and
// compute, a gather at rank 0, the root's compute after it — once as an SPMD
// Run with real collectives and once as a Ledger committed on a twin
// machine. Every clock component, the step counts, the phase labels,
// the machine's statistics and every disk's statistics must agree bit
// for bit, as must Commit's reported makespan and bytes.
func TestCommitBillsLikeRun(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(5)
		type op struct{ read, compute int }
		plan := make([][]op, p)
		for r := range plan {
			for k := rng.Intn(4); k >= 0; k-- {
				plan[r] = append(plan[r], op{read: rng.Intn(200000), compute: rng.Intn(5000)})
			}
		}
		sizes := make([]int, p)
		for r := range sizes {
			sizes[r] = rng.Intn(3) * rng.Intn(40000)
		}
		rootOps := []float64{float64(rng.Intn(7000)), float64(rng.Intn(300))}

		// Some history on the clocks first, so the replay starts from
		// uneven times with communication in flight.
		prime := func(m *Machine) {
			m.Run(func(pr *Proc) {
				pr.SetOverlap(true)
				pr.Clock().AddCompute(float64(1000 * (pr.Rank() + 1)))
				out := make([]*record.Table, pr.P())
				for k := range out {
					out[k] = record.FromRows(1, [][]uint32{{uint32(k)}}, nil)
				}
				AllToAllTables(pr, out)
				pr.SetOverlap(false)
			})
		}

		run := newMachine(p)
		prime(run)
		t0, b0 := run.SimSeconds(), run.Stats().BytesMoved
		if err := run.Run(func(pr *Proc) {
			pr.SetPhase("query")
			for _, o := range plan[pr.Rank()] {
				pr.Disk().ChargeRead(o.read)
				pr.Clock().AddCompute(float64(o.compute))
			}
			Gather(pr, 0, 0, sizes[pr.Rank()])
			if pr.Rank() == 0 {
				for _, ops := range rootOps {
					pr.Clock().AddCompute(ops)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
		runSim, runBytes := run.SimSeconds()-t0, run.Stats().BytesMoved-b0

		led := newMachine(p)
		prime(led)
		l := NewLedger(p, "query")
		for r := 0; r < p; r++ {
			for _, o := range plan[r] {
				l.Read(r, o.read)
				l.Compute(r, float64(o.compute))
			}
			l.Gather(r, sizes[r])
		}
		for _, ops := range rootOps {
			l.Root(ops)
		}
		sim, bytes := led.Commit(l)

		if sim != runSim || bytes != runBytes {
			t.Fatalf("seed %d: Commit = (%v, %d), Run = (%v, %d)", seed, sim, bytes, runSim, runBytes)
		}
		rs, ls := run.Stats(), led.Stats()
		if rs.BytesMoved != ls.BytesMoved || rs.Messages != ls.Messages || rs.Supersteps != ls.Supersteps ||
			rs.ByPhase["query"] != ls.ByPhase["query"] {
			t.Fatalf("seed %d: stats %+v, Run %+v", seed, ls, rs)
		}
		for r := 0; r < p; r++ {
			a, b := run.Proc(r), led.Proc(r)
			ac, bc := a.Clock(), b.Clock()
			// Equal clocks have equal communication in flight: it shows
			// as equal seconds once both settle it.
			inFlight := ac.Seconds() - bc.Seconds()
			ac.SettleComm()
			bc.SettleComm()
			if inFlight != 0 || ac.Seconds() != bc.Seconds() || ac.CPUSeconds() != bc.CPUSeconds() || ac.DiskSeconds() != bc.DiskSeconds() ||
				ac.CommSeconds() != bc.CommSeconds() ||
				ac.OverlappedCommSeconds() != bc.OverlappedCommSeconds() {
				t.Fatalf("seed %d rank %d: clocks differ", seed, r)
			}
			if a.steps != b.steps || a.phase != b.phase || a.Disk().Stats() != b.Disk().Stats() {
				t.Fatalf("seed %d rank %d: steps %d/%d, phase %q/%q, disk %+v/%+v",
					seed, r, b.steps, a.steps, b.phase, a.phase, b.Disk().Stats(), a.Disk().Stats())
			}
		}
	}
}
