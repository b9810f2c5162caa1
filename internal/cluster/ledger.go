package cluster

// Ledger records what one scatter–gather operation charges — each
// processor's local reads and compute, its payload to a gather at rank
// 0, then rank 0's compute on the gathered data — so the operation can
// run off the machine (on plain goroutines, with no barrier,
// concurrently with other operations) and be billed afterwards. Commit
// replays a ledger onto the machine's clocks, disks and statistics in
// exactly the order Run and Gather would have applied the charges, so
// an operation billed through a ledger costs bit-for-bit what it cost
// as an SPMD run.
//
// Rank r's local charges and payload must be recorded by one goroutine
// at a time; different ranks may record concurrently. Root charges are
// recorded once every rank has posted.
type Ledger struct {
	phase  string
	local  [][]charge // each rank's charges before the gather, in order
	posted []int      // each rank's payload bytes to the gather
	root   []float64  // rank 0's compute after the gather, in order
}

// charge is one local charge: a disk read of bytes, or ops record
// operations of CPU.
type charge struct {
	read  bool
	bytes int
	ops   float64
}

// NewLedger returns an empty ledger for an operation on p processors
// whose communication is labelled phase (as SetPhase labels it).
func NewLedger(p int, phase string) *Ledger {
	return &Ledger{phase: phase, local: make([][]charge, p), posted: make([]int, p)}
}

// Read records a disk read of bytes on rank (Disk.Get, ReadRange).
func (l *Ledger) Read(rank, bytes int) {
	l.local[rank] = append(l.local[rank], charge{read: true, bytes: bytes})
}

// Compute records ops record operations of CPU work on rank before the
// gather.
func (l *Ledger) Compute(rank int, ops float64) {
	l.local[rank] = append(l.local[rank], charge{ops: ops})
}

// Gather records rank's payload of bytes to the gather at rank 0.
func (l *Ledger) Gather(rank, bytes int) {
	l.posted[rank] = bytes
}

// Root records ops record operations of CPU work rank 0 does after the
// gather (merging what it received).
func (l *Ledger) Root(ops float64) {
	l.root = append(l.root, ops)
}

// Commit bills the ledger to the machine and returns the simulated
// makespan it added and the bytes it moved. Commits are serialized
// with each other, but a commit must not overlap Run: the caller keeps
// SPMD runs and ledger commits apart (the query engine runs the former
// only under its exclusive maintenance lock).
//
// The replay is Run's: every rank takes the phase label and its local
// charges in order; the gather is the superstep Gather runs (the step
// count and the settle, the clocks synchronized to the slowest, the
// h-relation charged and accounted); rank 0 then takes its root
// charges, and every clock settles. Fault plans are not consulted: a
// ledger bills work that has already happened.
func (m *Machine) Commit(l *Ledger) (simSeconds float64, bytesMoved int64) {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	t0 := m.SimSeconds()
	tmax, recv := 0.0, 0
	for r, p := range m.procs {
		p.phase = l.phase
		for _, c := range l.local[r] {
			if c.read {
				p.disk.ChargeRead(c.bytes)
			} else {
				p.clock.AddCompute(c.ops)
			}
		}
		p.steps++
		p.clock.SettleComm()
		tmax = max(tmax, p.clock.Seconds())
		if r != 0 {
			recv += l.posted[r]
		}
	}
	for r, p := range m.procs {
		sent, msgs := gatherSent(r, 0, l.posted[r])
		bytesMoved += int64(sent)
		if r != 0 {
			p.step(tmax, sent, 0, msgs, false)
		} else {
			p.step(tmax, sent, recv, msgs, false)
		}
	}
	for _, ops := range l.root {
		m.procs[0].clock.AddCompute(ops)
	}
	for _, p := range m.procs {
		p.clock.SettleComm()
	}
	return m.SimSeconds() - t0, bytesMoved
}
