// Package cluster simulates the paper's shared-nothing multiprocessor
// (Figure 2a): p processors P0..Pp-1, each with private memory and a
// private local disk, connected by a switch. There is no shared memory
// or shared disk visible to the algorithm; processors interact only
// through the collective operations of this package, mirroring the MPI
// primitives the paper uses (MPI_Alltoallv h-relations, broadcast,
// gather).
//
// Execution model: Run launches one goroutine per processor executing
// the same SPMD body, so the algorithm really runs in parallel on the
// host. Timing model: each processor owns a costmodel.Clock charged for
// its local CPU and disk work; every collective is a BSP superstep that
// (1) synchronizes all clocks to the maximum (the barrier wait) and
// (2) charges each processor h-relation communication time, where h is
// the maximum of its bytes sent and received in the superstep. The
// machine's simulated wall-clock time is the maximum clock at the end,
// exactly the paper's "wall clock time between the start of the first
// process and the termination of the last process".
//
// In overlapped mode (Proc.SetOverlap, the paper's §4.1 optimization)
// bulk h-relations are posted and the processor continues: the charge
// runs concurrently with subsequent local CPU/disk work and the
// unmasked remainder is settled at the next barrier.
//
// An operation may also run off the machine and bill it afterwards: it
// records its charges in a Ledger, and Machine.Commit replays them as
// Run and Gather would have charged them.
package cluster

import (
	"fmt"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/record"
	"repro/internal/simdisk"
)

// Machine is a simulated shared-nothing multiprocessor.
type Machine struct {
	p      int
	params costmodel.Params
	procs  []*Proc

	bar *barrier

	// Superstep exchange state. matrix[src][dst] carries point-to-point
	// payloads; slot[src] carries one-per-processor payloads; times[src]
	// carries clock postings for BSP synchronization.
	matrix [][]any
	slot   []any
	times  []float64

	// faults, when non-nil, is the installed fault-injection state
	// (SetFaults). It survives Shrink so a recovered machine keeps the
	// same plan.
	faults *faultState

	mu    sync.Mutex
	stats Stats

	// commitMu serializes ledger commits (Commit).
	commitMu sync.Mutex
}

// Stats aggregates communication over a run.
type Stats struct {
	BytesMoved int64            // total bytes crossing the network
	Messages   int64            // total point-to-point messages
	Supersteps int64            // number of collective supersteps
	Retried    int64            // retransmitted messages (fault repairs)
	ByPhase    map[string]int64 // bytes moved per phase label
}

// Proc is one simulated processor: a rank, a private clock, and a
// private disk. SPMD bodies receive their Proc and must not touch any
// other processor's state except through collectives.
type Proc struct {
	rank    int
	orig    int // original rank, stable across Shrink
	m       *Machine
	clock   *costmodel.Clock
	disk    *simdisk.Disk
	phase   string
	overlap bool

	// Fault-injection execution point: the current dimension iteration
	// (SetEpoch, -1 before the first), the processor's superstep count,
	// and its bulk-table-exchange ordinal.
	epoch     int
	steps     int64
	exchanges int64
}

// slotMsg is a one-per-processor payload together with its modelled
// wire size, so receivers are charged for what was actually posted
// rather than what they guessed.
type slotMsg struct {
	val   any
	bytes int
}

// New returns a machine with p processors using the given cost
// parameters.
func New(p int, params costmodel.Params) *Machine {
	if p < 1 {
		panic(fmt.Sprintf("cluster: need at least one processor, got %d", p))
	}
	m := &Machine{
		p:      p,
		params: params,
		bar:    newBarrier(p),
		matrix: make([][]any, p),
		slot:   make([]any, p),
		times:  make([]float64, p),
		stats:  Stats{ByPhase: make(map[string]int64)},
	}
	for i := range m.matrix {
		m.matrix[i] = make([]any, p)
	}
	m.procs = make([]*Proc, p)
	for i := 0; i < p; i++ {
		clk := costmodel.NewClock(params)
		m.procs[i] = &Proc{rank: i, orig: i, m: m, clock: clk, disk: simdisk.New(clk), epoch: -1}
	}
	return m
}

// P returns the number of processors.
func (m *Machine) P() int { return m.p }

// Params returns the machine's cost parameters.
func (m *Machine) Params() costmodel.Params { return m.params }

// Proc returns processor i, for pre-loading its disk before Run and
// inspecting it afterwards.
func (m *Machine) Proc(i int) *Proc { return m.procs[i] }

// Stats returns a copy of the accumulated communication statistics.
func (m *Machine) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := m.stats
	s.ByPhase = make(map[string]int64, len(m.stats.ByPhase))
	for k, v := range m.stats.ByPhase {
		s.ByPhase[k] = v
	}
	return s
}

// SimSeconds returns the simulated makespan: the maximum clock over all
// processors.
func (m *Machine) SimSeconds() float64 {
	max := 0.0
	for _, p := range m.procs {
		if s := p.clock.Seconds(); s > max {
			max = s
		}
	}
	return max
}

// Run executes body on every processor concurrently and blocks until
// all finish. If any processor fails — an injected crash or an
// unexpected panic — every other processor is released from its
// barrier waits and Run returns the first failure as an error: a
// *faults.CrashError for injected crashes, otherwise an error naming
// the panicking rank. The machine is reusable after a failed run (the
// barrier is reset and surviving clocks are settled), which is what
// checkpoint recovery builds on.
func (m *Machine) Run(body func(*Proc)) error {
	var wg sync.WaitGroup
	wg.Add(m.p)
	for i := 0; i < m.p; i++ {
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				switch r := recover().(type) {
				case nil:
				case abortSignal:
					// Another processor failed first; just unwind.
				case crashPanic:
					m.bar.abort(r.err)
				default:
					m.bar.abort(fmt.Errorf("cluster: processor %d panicked: %v", p.rank, r))
				}
			}()
			body(p)
			// Communication still in flight when the body returns must
			// complete before the machine's makespan is read.
			p.clock.SettleComm()
		}(m.procs[i])
	}
	wg.Wait()
	if err := m.bar.abortErr(); err != nil {
		// Unwound processors skipped their normal settle; their
		// in-flight communication still completes on the wire.
		for _, p := range m.procs {
			p.clock.SettleComm()
		}
		m.bar.reset()
		return err
	}
	return nil
}

// Rank returns the processor's rank in [0, P).
func (p *Proc) Rank() int { return p.rank }

// P returns the number of processors in the machine.
func (p *Proc) P() int { return p.m.p }

// Clock returns the processor's simulated clock.
func (p *Proc) Clock() *costmodel.Clock { return p.clock }

// Disk returns the processor's private disk.
func (p *Proc) Disk() *simdisk.Disk { return p.disk }

// SetPhase labels subsequent communication for per-phase statistics
// (e.g. the merge phase bytes of Figure 8b). It is also a fault
// injection point: a planned crash pinned to this phase fires here.
func (p *Proc) SetPhase(name string) {
	p.phase = name
	p.maybeCrash()
}

// SetEpoch marks the start of a dimension iteration (the paper's Di
// boundary) for fault targeting, clearing the phase label. A planned
// crash pinned to this dimension boundary fires here.
func (p *Proc) SetEpoch(e int) {
	p.epoch = e
	p.phase = ""
	p.maybeCrash()
}

// SetOverlap switches this processor's bulk h-relations (AllToAll) to
// overlapped mode, the paper's §4.1 communication–computation overlap:
// the exchange is posted and the processor continues with local work;
// the transfer runs concurrently with subsequent CPU/disk charges and
// whatever has not been masked is settled at the next barrier. Control
// collectives (Broadcast, Gather, AllGather) stay synchronous — their
// results gate the computation that follows, so overlapping them would
// be dishonest.
func (p *Proc) SetOverlap(on bool) { p.overlap = on }

// account records communication volume attributed to this processor's
// sends.
func (p *Proc) account(bytesSent int64, msgs int64) {
	m := p.m
	m.mu.Lock()
	m.stats.BytesMoved += bytesSent
	m.stats.Messages += msgs
	if p.phase != "" {
		m.stats.ByPhase[p.phase] += bytesSent
	}
	m.mu.Unlock()
}

// superstep performs the two-barrier BSP exchange protocol around a
// collective. post must write this processor's payloads into the
// exchange state; read must consume payloads destined to this
// processor and return its received byte count, so the h-relation is
// charged max(sent, recv) from what actually arrived — not from a
// value guessed before the exchange. sent is this processor's outgoing
// byte count and msgs its message count. overlappable marks bulk
// exchanges whose charge may ride the clock's overlap lane when the
// processor is in overlapped mode.
func (p *Proc) superstep(post func(), read func() int, sent, msgs int, overlappable bool) {
	m := p.m
	// Superstep entry is a fault injection point: a crash fired here
	// kills the processor before it posts anything, so its payloads for
	// this exchange are lost — the failure mode a real MPI job sees.
	p.steps++
	p.maybeCrash()
	post()
	// Any communication still overlapping from an earlier superstep
	// must complete before this barrier: its time is part of when this
	// processor arrives.
	p.clock.SettleComm()
	m.times[p.rank] = p.clock.Seconds()
	m.bar.wait()

	// All postings visible. Synchronize to the slowest processor, then
	// pay for this processor's share of the h-relation.
	tmax := 0.0
	for _, t := range m.times {
		if t > tmax {
			tmax = t
		}
	}
	p.step(tmax, sent, read(), msgs, overlappable)

	// Second barrier: nobody may start posting the next superstep until
	// everyone has read this one.
	m.bar.wait()
}

// step charges this processor's share of a superstep once every clock
// has posted its arrival time: wait for the slowest (tmax), pay the
// h-relation max(sent, recv) over msgs messages — on the overlap lane
// for an overlappable exchange in overlapped mode — and account the
// bytes sent. Rank 0 counts the superstep. superstep and Commit both
// charge through it, so a replayed collective costs what a run one did.
func (p *Proc) step(tmax float64, sent, recv, msgs int, overlappable bool) {
	p.clock.AdvanceTo(tmax)
	h := max(sent, recv)
	if overlappable && p.overlap {
		p.clock.AddCommOverlap(h, msgs)
	} else {
		p.clock.AddComm(h, msgs)
	}
	p.account(int64(sent), int64(msgs))
	if p.rank == 0 {
		p.m.mu.Lock()
		p.m.stats.Supersteps++
		p.m.mu.Unlock()
	}
}

// Barrier synchronizes all processors and their clocks without moving
// data.
func Barrier(p *Proc) {
	p.superstep(func() {}, func() int { return 0 }, 0, 0, false)
}

// Broadcast sends root's value to every processor and returns it.
// bytes is the modelled payload size as known at the root, which is
// charged for p-1 outgoing copies; non-roots are charged for the size
// the root actually posted (their own bytes argument is ignored, as in
// MPI, where the root determines the message size).
func Broadcast[T any](p *Proc, root int, val T, bytes int) T {
	m := p.m
	var out T
	sent, msgs := 0, 0
	if p.rank == root && bytes > 0 {
		sent = bytes * (m.p - 1)
		msgs = m.p - 1
	}
	p.superstep(
		func() {
			if p.rank == root {
				m.slot[root] = slotMsg{val: val, bytes: bytes}
			}
		},
		func() int {
			msg := m.slot[root].(slotMsg)
			out = msg.val.(T)
			if p.rank == root {
				return 0
			}
			return msg.bytes
		},
		sent, msgs, false,
	)
	return out
}

// Gather collects one value from every processor at root. Only the
// root receives the slice (indexed by rank); others get nil. bytes is
// this processor's payload size; the root is charged the sum of the
// sizes actually posted, so uneven contributions (e.g. pivot lists
// from processors with few rows) are accounted honestly.
func Gather[T any](p *Proc, root int, val T, bytes int) []T {
	m := p.m
	var out []T
	sent, msgs := gatherSent(p.rank, root, bytes)
	p.superstep(
		func() { m.slot[p.rank] = slotMsg{val: val, bytes: bytes} },
		func() int {
			if p.rank != root {
				return 0
			}
			out = make([]T, m.p)
			recv := 0
			for i := 0; i < m.p; i++ {
				msg := m.slot[i].(slotMsg)
				out[i] = msg.val.(T)
				if i != root {
					recv += msg.bytes
				}
			}
			return recv
		},
		sent, msgs, false,
	)
	return out
}

// gatherSent is one processor's outgoing share of a Gather at root: a
// non-root sends its payload as one message, the root sends nothing.
func gatherSent(rank, root, bytes int) (sent, msgs int) {
	if rank != root && bytes > 0 {
		return bytes, 1
	}
	return 0, 0
}

// AllGather collects one value from every processor at every
// processor. bytes is this processor's payload size; each processor
// receives the sum of the other processors' posted sizes.
func AllGather[T any](p *Proc, val T, bytes int) []T {
	m := p.m
	out := make([]T, m.p)
	sent, msgs := 0, 0
	if bytes > 0 {
		sent = bytes * (m.p - 1)
		msgs = m.p - 1
	}
	p.superstep(
		func() { m.slot[p.rank] = slotMsg{val: val, bytes: bytes} },
		func() int {
			recv := 0
			for i := 0; i < m.p; i++ {
				msg := m.slot[i].(slotMsg)
				out[i] = msg.val.(T)
				if i != p.rank {
					recv += msg.bytes
				}
			}
			return recv
		},
		sent, msgs, false,
	)
	return out
}

// AllToAll performs the h-relation at the heart of the algorithm
// (MPI_Alltoallv): out[k] is this processor's payload for processor k;
// the result's element j is the payload processor j addressed to this
// processor. bytesOf models each payload's wire size; local delivery
// (k == rank) is free. Each processor is charged max(sent, recv) — the
// true h-relation, so receive-skewed processors pay for what arrives.
// In overlapped mode (SetOverlap) the charge rides the clock's overlap
// lane and may be masked by subsequent local work.
func AllToAll[T any](p *Proc, out []T, bytesOf func(T) int) []T {
	m := p.m
	if len(out) != m.p {
		panic(fmt.Sprintf("cluster: AllToAll payload count %d, want %d", len(out), m.p))
	}
	sent, msgs := 0, 0
	for k, v := range out {
		if k != p.rank {
			if b := bytesOf(v); b > 0 {
				sent += b
				msgs++
			}
		}
	}
	in := make([]T, m.p)
	p.superstep(
		func() {
			for k, v := range out {
				m.matrix[p.rank][k] = v
			}
		},
		func() int {
			recv := 0
			for j := 0; j < m.p; j++ {
				in[j] = m.matrix[j][p.rank].(T)
				if j != p.rank {
					recv += bytesOf(in[j])
				}
			}
			return recv
		},
		sent, msgs, true,
	)
	return in
}

// tableBytes is the modelled wire size of a payload table (nil means
// empty): its row bytes plus the sketch blobs a holistic table ships
// with its rows.
func tableBytes(t *record.Table) int {
	if t == nil || t.Len() == 0 {
		return 0
	}
	return t.Bytes() + t.StateBytes()
}

// AllToAllTables is AllToAll for record tables, with byte accounting
// from the tables' modelled sizes. nil entries are treated as empty.
// When a fault plan is installed (SetFaults) each payload carries a
// wire-image checksum; injected drops and corruptions are detected and
// repaired by charged retransmissions with exponential backoff.
func AllToAllTables(p *Proc, out []*record.Table) []*record.Table {
	if p.m.faults == nil {
		return AllToAll(p, out, tableBytes)
	}
	return allToAllChecked(p, out, wire[*record.Table]{
		size:    tableBytes,
		rows:    (*record.Table).Len,
		sum:     (*record.Table).Checksum,
		corrupt: (*record.Table).Corrupt,
		clone:   (*record.Table).Clone,
	})
}

// Reduce combines one value per processor at root with a left fold over
// ranks 0..p-1; non-roots receive the zero value.
func Reduce[T any](p *Proc, root int, val T, bytes int, combine func(a, b T) T) T {
	vals := Gather(p, root, val, bytes)
	var acc T
	if p.rank == root {
		acc = vals[0]
		for _, v := range vals[1:] {
			acc = combine(acc, v)
		}
	}
	return acc
}

// AllReduce combines one value per processor and delivers the result
// everywhere.
func AllReduce[T any](p *Proc, val T, bytes int, combine func(a, b T) T) T {
	vals := AllGather(p, val, bytes)
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = combine(acc, v)
	}
	return acc
}
