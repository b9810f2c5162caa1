package cluster

import (
	"fmt"
	"sync"

	"repro/internal/costmodel"
	"repro/internal/faults"
)

// faultState is the runtime side of an installed fault plan: the
// immutable plan plus which planned crashes have already fired on this
// machine. Keeping the fired flags here (not on the plan) lets one
// plan value drive any number of machines, which the determinism test
// depends on.
type faultState struct {
	plan  *faults.Plan
	mu    sync.Mutex
	fired []bool
}

// crashPanic unwinds the goroutine of a deliberately crashed
// processor; Run converts it into the *faults.CrashError it carries.
type crashPanic struct{ err *faults.CrashError }

// SetFaults installs a fault-injection plan on the machine (nil
// uninstalls). Straggler factors take effect immediately on the
// processors' clocks; crashes and payload faults fire as execution
// reaches their trigger points. The plan addresses processors by
// original rank, so it stays meaningful across Shrink.
func (m *Machine) SetFaults(plan *faults.Plan) error {
	if plan == nil {
		m.faults = nil
		for _, p := range m.procs {
			p.clock.SetSlowdown(1)
		}
		return nil
	}
	if err := plan.Validate(m.p); err != nil {
		return err
	}
	m.faults = &faultState{plan: plan, fired: make([]bool, len(plan.Crashes))}
	for _, p := range m.procs {
		p.clock.SetSlowdown(plan.SlowdownFor(p.orig))
	}
	return nil
}

// maybeCrash fires at most once per planned crash when this
// processor's current execution point matches. Called at superstep
// entry, SetPhase, and SetEpoch.
func (p *Proc) maybeCrash() {
	fs := p.m.faults
	if fs == nil {
		return
	}
	for i, c := range fs.plan.Crashes {
		if !c.Matches(p.orig, p.epoch, p.phase, p.steps) {
			continue
		}
		fs.mu.Lock()
		done := fs.fired[i]
		fs.fired[i] = true
		fs.mu.Unlock()
		if done {
			continue
		}
		panic(crashPanic{&faults.CrashError{
			Rank:      p.orig,
			Dimension: p.epoch,
			Phase:     p.phase,
			Superstep: p.steps,
		}})
	}
}

// Shrink removes processor rank from the machine in place, renumbering
// the survivors' ranks while preserving their original ranks, clocks,
// disks, and the machine's accumulated statistics and fault plan. It
// models degraded continuation after a crash: the dead node's disk and
// its contents are gone. The machine must not be running.
func (m *Machine) Shrink(rank int) error {
	if m.p <= 1 {
		return fmt.Errorf("cluster: cannot shrink a %d-processor machine", m.p)
	}
	if rank < 0 || rank >= m.p {
		return fmt.Errorf("cluster: shrink rank %d out of range 0..%d", rank, m.p-1)
	}
	m.procs = append(m.procs[:rank:rank], m.procs[rank+1:]...)
	m.p--
	for i, p := range m.procs {
		p.rank = i
	}
	m.bar = newBarrier(m.p)
	m.matrix = make([][]any, m.p)
	for i := range m.matrix {
		m.matrix[i] = make([]any, m.p)
	}
	m.slot = make([]any, m.p)
	m.times = make([]float64, m.p)
	return nil
}

// RankOf returns the current rank of the processor with the given
// original rank, or -1 if it has been removed by Shrink.
func (m *Machine) RankOf(orig int) int {
	for _, p := range m.procs {
		if p.orig == orig {
			return p.rank
		}
	}
	return -1
}

// wire describes how the checked all-to-all path handles one payload
// type: its modelled wire size (0 for an absent message), its row count
// (charged for checksum scans), its checksum, deterministic in-place
// damage, and a deep copy to damage instead of the live value.
type wire[T any] struct {
	size    func(T) int
	rows    func(T) int
	sum     func(T) uint64
	corrupt func(T, uint32) bool
	clone   func(T) T
}

// envelope is the wire format of the checked all-to-all path: the
// payload, the sender's checksum over its wire image, and the fault
// directives the plan injects into this delivery.
type envelope[T any] struct {
	v           T
	sum         uint64
	drops       int
	corruptions int
	src         int // sender's original rank
	exchange    int64
}

// allToAllChecked is the fault-aware bulk exchange. Senders checksum
// every outgoing payload (charged as a scan). Receivers replay the
// injected delivery failures: a dropped payload times out and is
// retransmitted; a corrupted payload is detected by a checksum mismatch
// and retransmitted. Every failed attempt costs the receiver the
// payload's wire time again plus an exponential backoff, charged
// synchronously after the superstep (retries happen after the
// h-relation's first pass, so they cannot ride the overlap lane).
func allToAllChecked[T any](p *Proc, out []T, w wire[T]) []T {
	m := p.m
	fs := m.faults
	if len(out) != m.p {
		panic(fmt.Sprintf("cluster: AllToAll payload count %d, want %d", len(out), m.p))
	}
	exchange := p.exchanges
	p.exchanges++

	env := make([]envelope[T], m.p)
	sent, msgs, sentRows := 0, 0, 0
	for k, v := range out {
		e := envelope[T]{v: v}
		if b := w.size(v); k != p.rank && b > 0 {
			e.sum = w.sum(v)
			e.src = p.orig
			e.exchange = exchange
			e.drops, e.corruptions = fs.plan.FailuresFor(p.orig, m.procs[k].orig, exchange)
			sentRows += w.rows(v)
			sent += b
			msgs++
		}
		env[k] = e
	}
	// The sender's checksum pass over its outgoing rows.
	p.clock.AddCompute(costmodel.ScanOps(sentRows))

	in := make([]T, m.p)
	var retryBytes int64
	var retryMsgs int64
	var verifyRows int
	var backoff float64
	base := fs.plan.Backoff()

	p.superstep(
		func() {
			for k := range env {
				m.matrix[p.rank][k] = env[k]
			}
		},
		func() int {
			recv := 0
			for j := 0; j < m.p; j++ {
				e := m.matrix[j][p.rank].(envelope[T])
				in[j] = e.v
				b := w.size(e.v)
				if j == p.rank || b == 0 {
					continue
				}
				recv += b
				attempt := 0
				// Dropped attempts: the receiver's delivery timeout
				// expires and the sender retransmits.
				for i := 0; i < e.drops; i++ {
					attempt++
					backoff += base * float64(int(1)<<(attempt-1))
					retryBytes += int64(b)
					retryMsgs++
				}
				// Corrupted attempts: a damaged copy arrives, the
				// receiver's checksum pass rejects it, and the sender
				// retransmits.
				for i := 0; i < e.corruptions; i++ {
					attempt++
					bad := w.clone(e.v)
					if w.corrupt(bad, fs.plan.CorruptionMask(e.src, p.orig, e.exchange, attempt)) {
						if w.sum(bad) == e.sum {
							panic(fmt.Sprintf("cluster: corrupted payload %d->%d passed checksum", e.src, p.rank))
						}
					}
					verifyRows += w.rows(bad)
					backoff += base * float64(int(1)<<(attempt-1))
					retryBytes += int64(b)
					retryMsgs++
				}
				// The delivery that sticks is verified too.
				if w.sum(e.v) != e.sum {
					panic(fmt.Sprintf("cluster: payload %d->%d failed checksum after retries", e.src, p.rank))
				}
				verifyRows += w.rows(e.v)
			}
			return recv
		},
		sent, msgs, true,
	)

	// Repair costs are charged synchronously after the superstep: the
	// retransmitted bytes, the backoff waits, and the receiver's
	// checksum passes. The retransmissions are repair traffic, counted
	// in Stats.Retried rather than in the h-relation's BytesMoved.
	if retryMsgs > 0 {
		p.clock.AddComm(int(retryBytes), int(retryMsgs))
		p.clock.AddCommDelay(backoff)
		m.mu.Lock()
		m.stats.Retried += retryMsgs
		m.mu.Unlock()
	}
	p.clock.AddCompute(costmodel.ScanOps(verifyRows))
	return in
}
