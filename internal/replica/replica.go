// Package replica implements the replicated serving tier that splits
// the read path off the ingest leader: N cube replicas, each
// bootstrapped from a snapshot of the leader (the format-5 section
// stream rolap's Save writes) and advanced by applying the leader's
// committed ingest batches in commit order.
// Because the delta pipeline is deterministic and snapshots re-scatter
// slices on the leader's partition boundaries, a replica that has
// applied batch k is byte-identical to the leader as of batch k — same
// view slices, same per-view version counters — so any replica within
// the configured staleness bound can answer any read the leader could.
//
// The design follows the main-memory cluster OLAP playbook (Hespe et
// al., see PAPERS.md): one writer, many readers, snapshot + delta
// shipping, bounded-staleness reads. The leader never blocks on
// replica progress: committing a batch is an append to the delta log
// and a wakeup; per-replica shipping goroutines drain the log at their
// own pace. Replica failures reuse the faults machinery from the
// build's fault model — a seeded plan crashes a replica at an exact
// batch sequence, and the crashed replica re-bootstraps from the
// latest snapshot plus the delta log, deterministically.
//
// On top of replication the package carries the serving path's failure
// policy: reads are handed out as leases whose release reports the
// outcome, per-replica circuit breakers (see breaker.go) steer routing
// away from replicas that keep failing reads, and a serving-time fault
// plan (faults.ServePlan) injects deterministic query-time crashes,
// stragglers, and delta-ship stalls for chaos testing.
package replica

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/colstore"
	"repro/internal/faults"
	"repro/internal/record"
)

// ErrClosed is returned by Acquire and WaitCaughtUp after Close.
var ErrClosed = errors.New("replica: group closed")

// ErrAllFailed is returned by Acquire when every replica has been
// permanently retired: no amount of waiting will produce an eligible
// replica, so the caller should fail over to the leader instead of
// blocking out its deadline.
var ErrAllFailed = errors.New("replica: every replica permanently failed")

// ServeCrashError reports that the replica picked for a read was
// killed by an injected serving-time crash (faults.ServePlan) while
// the read was being dispatched. The read never executed; the caller
// should fail over to another replica.
type ServeCrashError struct {
	// Replica is the crashed replica's index; Query the per-replica
	// read ordinal the crash was keyed on.
	Replica int
	Query   uint64
}

func (e *ServeCrashError) Error() string {
	return fmt.Sprintf("replica: replica %d crashed at its query %d (injected)", e.Replica, e.Query)
}

// Batch is one committed leader ingest batch in the delta log. Rows
// are in the cube's internal dimension order, exactly as the leader
// applied them.
type Batch struct {
	Seq  uint64
	Rows [][]uint32
	Meas []int64
	// Bytes is the modelled on-wire size of the batch, fixed at Commit:
	// its columnar compressed image.
	Bytes int
}

// Node is one replica's serving state: a cube bootstrapped from a
// leader snapshot, advanced by applying shipped batches. Apply must be
// deterministic — applying the same batches in the same order to the
// same snapshot yields the same node state.
type Node interface {
	Apply(rows [][]uint32, meas []int64) error
}

// Config configures a replica group.
type Config struct {
	// Replicas is the number of read replicas (>= 1).
	Replicas int
	// MaxLag is the staleness bound in committed batches: a replica is
	// eligible to serve only while leaderSeq - applied <= MaxLag. 0
	// means replicas serve only when fully caught up.
	MaxLag uint64
	// Bootstrap builds a fresh Node from a leader snapshot. It is
	// called once per replica at group creation and again whenever a
	// crashed replica re-bootstraps.
	Bootstrap func(snapshot []byte) (Node, error)
	// Faults, when non-nil, injects deterministic replica crashes:
	// Crash.Rank is the replica index and Crash.Superstep the batch
	// sequence the replica dies at (just before applying it). A crash
	// with Superstep 0 and Dimension -1 fires before the replica's
	// first apply. Payload faults and stragglers in the plan are
	// ignored — replication ships committed state, not h-relations.
	Faults *faults.Plan
	// ServeFaults, when non-nil, injects deterministic serving-time
	// faults: replica crashes keyed on per-replica read ordinals
	// (surfaced to Acquire as *ServeCrashError), query stragglers
	// (surfaced as Lease.Delay), and delta-ship stalls (wall-clock
	// delays in the shipping loop).
	ServeFaults *faults.ServePlan
	// Breaker configures the per-replica circuit breakers (zero value
	// = defaults; Threshold < 0 disables them).
	Breaker BreakerConfig
	// BeforeApply, when non-nil, runs before a replica applies a batch
	// — an instrumentation hook for modelling slow replicas in tests.
	BeforeApply func(replica int, seq uint64)
}

// ReplicaStat is one replica's progress and routing counters.
type ReplicaStat struct {
	// Node is the replica's current serving node (nil while down). It
	// is replaced wholesale by a re-bootstrap.
	Node Node
	// State is "live" (eligible), "catchingup" (running but beyond the
	// staleness bound), "down" (crashed, awaiting re-bootstrap), or
	// "failed" (bootstrap or re-apply failed permanently, or retired
	// by Retire).
	State string
	// Breaker is the replica's circuit-breaker state: "closed",
	// "open", "half-open", or "disabled".
	Breaker string
	// Applied is the last batch sequence applied; Lag is leaderSeq -
	// Applied.
	Applied uint64
	Lag     uint64
	// Inflight is the number of reads currently routed here.
	Inflight int
	// Routed counts reads ever routed here (survives re-bootstraps).
	Routed int64
	// Bootstraps counts node constructions (1 for a replica that never
	// crashed); Crashes counts failures, injected or real.
	Bootstraps int64
	Crashes    int64
}

// Stats is a point-in-time snapshot of the group.
type Stats struct {
	// LeaderSeq is the last committed batch sequence; SnapSeq the
	// sequence of the current bootstrap snapshot; LogLen the number of
	// retained delta-log entries.
	LeaderSeq uint64
	SnapSeq   uint64
	LogLen    int
	// Routed counts reads routed across all replicas; Waits counts
	// Acquire calls that had to block because no replica was within
	// the staleness bound (or breaker-admitted).
	Routed int64
	Waits  int64
	// SnapshotShipBytes totals the snapshot bytes shipped to bootstrap
	// replicas (initial bootstraps and crash-recovery re-bootstraps);
	// DeltaShipBytes totals the modelled on-wire bytes of shipped delta
	// batches. Both shrink under the columnar store: snapshots are
	// streams of sealed columnar slices and delta batches ship
	// compressed.
	SnapshotShipBytes int64
	DeltaShipBytes    int64
	// BreakerOpens, BreakerProbes, and BreakerCloses total the
	// circuit-breaker transitions across all replicas.
	BreakerOpens  int64
	BreakerProbes int64
	BreakerCloses int64
	// Replicas has one entry per replica, by index.
	Replicas []ReplicaStat
}

type rep struct {
	node        Node
	applied     uint64
	down        bool
	booting     bool   // a Bootstrap from the snapshot at bootSeq is in flight
	bootSeq     uint64 // the delta log past it must outlive the bootstrap
	failed      bool
	inflight    int
	routed      int64
	qseq        uint64 // per-replica routed-read ordinal (serve-fault key)
	bootstraps  int64
	crashes     int64
	lastFailSeq uint64 // batch whose Apply failed (0 = none): two failures in a row => failed
	br          *breaker
}

// Group manages N replicas: the delta log, per-replica shipping
// goroutines, bounded-staleness routing, breaker-gated leases, and
// crash/catch-up. All methods are safe for concurrent use. The leader
// side (Commit, SetSnapshot) never blocks on replica progress.
type Group struct {
	cfg  Config
	mu   sync.Mutex
	cond *sync.Cond
	wg   sync.WaitGroup

	closed   bool
	closedCh chan struct{}

	// log holds committed batches not yet compacted, ascending and
	// contiguous in Seq.
	log       []Batch
	leaderSeq uint64
	snapshot  []byte
	snapSeq   uint64

	reps            []*rep
	crashFired      []bool
	serveCrashFired []bool

	routed int64
	waits  int64

	// Modelled replication traffic: snapshot bytes shipped to bootstrap
	// replicas (initial and re-bootstraps) and delta-batch bytes shipped
	// to advance them.
	snapShipBytes  int64
	deltaShipBytes int64
}

// Lease is one read's reservation on a replica. Release must be called
// exactly when the read completes; its outcome drives the replica's
// circuit breaker.
type Lease struct {
	g     *Group
	idx   int
	node  Node
	delay time.Duration
	once  sync.Once
}

// Node returns the leased replica's serving node.
func (l *Lease) Node() Node { return l.node }

// Replica returns the leased replica's index.
func (l *Lease) Replica() int { return l.idx }

// Delay returns the injected straggler delay for this read (0 without
// serve faults). The caller is expected to sleep it before executing,
// modelling a slow replica.
func (l *Lease) Delay() time.Duration { return l.delay }

// Release returns the lease. failed reports whether the read failed in
// a way that indicts the replica (crash, execution error) — overload
// and caller-side deadline expiry are not the replica's fault and must
// be released with failed=false. Release is idempotent.
func (l *Lease) Release(failed bool) {
	l.once.Do(func() {
		g := l.g
		g.mu.Lock()
		r := g.reps[l.idx]
		r.inflight--
		r.br.done(failed, time.Now())
		g.cond.Broadcast()
		g.mu.Unlock()
	})
}

// New bootstraps cfg.Replicas replicas from the snapshot (taken at
// batch sequence snapSeq) and starts their shipping goroutines.
func New(cfg Config, snapshot []byte, snapSeq uint64) (*Group, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("replica: group needs at least one replica, got %d", cfg.Replicas)
	}
	if cfg.Bootstrap == nil {
		return nil, fmt.Errorf("replica: nil Bootstrap")
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(cfg.Replicas); err != nil {
			return nil, err
		}
	}
	if cfg.ServeFaults != nil {
		if err := cfg.ServeFaults.Validate(cfg.Replicas); err != nil {
			return nil, err
		}
	}
	g := &Group{
		cfg:       cfg,
		snapshot:  snapshot,
		snapSeq:   snapSeq,
		leaderSeq: snapSeq,
		closedCh:  make(chan struct{}),
	}
	g.cond = sync.NewCond(&g.mu)
	if cfg.Faults != nil {
		g.crashFired = make([]bool, len(cfg.Faults.Crashes))
	}
	if cfg.ServeFaults != nil {
		g.serveCrashFired = make([]bool, len(cfg.ServeFaults.Crashes))
	}
	for i := 0; i < cfg.Replicas; i++ {
		node, err := cfg.Bootstrap(snapshot)
		if err != nil {
			return nil, fmt.Errorf("replica %d: bootstrap: %w", i, err)
		}
		g.snapShipBytes += int64(len(snapshot))
		g.reps = append(g.reps, &rep{node: node, applied: snapSeq, bootstraps: 1, br: newBreaker(cfg.Breaker)})
	}
	for i := range g.reps {
		g.wg.Add(1)
		go g.ship(i)
	}
	return g, nil
}

// Commit appends one committed leader batch to the delta log and wakes
// the shippers. It never blocks on replica progress — the leader's
// ingest path returns immediately no matter how far behind any
// replica is. Returns the batch's assigned sequence.
func (g *Group) Commit(rows [][]uint32, meas []int64) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.leaderSeq++
	g.log = append(g.log, Batch{Seq: g.leaderSeq, Rows: rows, Meas: meas, Bytes: batchBytes(rows, meas)})
	g.cond.Broadcast()
	return g.leaderSeq
}

// batchBytes models one delta batch's on-wire size: its columnar
// compressed image. Deterministic — the same rows always cost the same
// bytes, so ship-byte totals are reproducible across runs.
func batchBytes(rows [][]uint32, meas []int64) int {
	if len(rows) == 0 {
		return 0
	}
	t := record.New(len(rows[0]), len(rows))
	for i, r := range rows {
		t.Append(r, meas[i])
	}
	return colstore.Encode(t).Bytes()
}

// SetSnapshot installs a fresh bootstrap snapshot taken at batch
// sequence seq and compacts the delta log: entries every running
// replica has already applied (and that the snapshot supersedes for
// re-bootstraps) are dropped. Down replicas restart from this snapshot
// instead of replaying from the beginning; one whose bootstrap from an
// older snapshot is in flight keeps the log it will replay, so it never
// comes up stranded behind a compacted log.
func (g *Group) SetSnapshot(snapshot []byte, seq uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if seq < g.snapSeq {
		return
	}
	g.snapshot, g.snapSeq = snapshot, seq
	min := seq
	for _, r := range g.reps {
		if !r.down && !r.failed && r.node != nil && r.applied < min {
			min = r.applied
		}
		if r.booting && r.bootSeq < min {
			min = r.bootSeq
		}
	}
	drop := 0
	for drop < len(g.log) && g.log[drop].Seq <= min {
		drop++
	}
	g.log = g.log[drop:]
}

// LeaderSeq returns the last committed batch sequence.
func (g *Group) LeaderSeq() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leaderSeq
}

// Crash takes replica i down as if it had failed. Its shipper
// re-bootstraps it from the latest snapshot and replays the delta log.
func (g *Group) Crash(i int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i < 0 || i >= len(g.reps) {
		return fmt.Errorf("replica: index %d out of range 0..%d", i, len(g.reps)-1)
	}
	r := g.reps[i]
	r.down, r.node = true, nil
	r.crashes++
	g.cond.Broadcast()
	return nil
}

// Retire permanently removes replica i from service: no re-bootstrap,
// no routing, as if its node were irrecoverably failed. In-flight
// reads drain normally. Use it to take a replica out for maintenance
// or after an operator decides it is beyond repair.
func (g *Group) Retire(i int) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if i < 0 || i >= len(g.reps) {
		return fmt.Errorf("replica: index %d out of range 0..%d", i, len(g.reps)-1)
	}
	g.reps[i].failed = true
	g.cond.Broadcast()
	return nil
}

// tryPickLocked routes one read: it returns a lease on the picked
// replica, a *ServeCrashError when the pick fired an injected
// serving-time crash (the replica is now down), or (nil, nil) when no
// replica is currently admittable.
func (g *Group) tryPickLocked(affinity uint64, avoid []bool) (*Lease, error) {
	now := time.Now()
	i := g.pickLocked(affinity, avoid, now)
	if i < 0 {
		return nil, nil
	}
	r := g.reps[i]
	r.qseq++
	if p := g.cfg.ServeFaults; p != nil {
		if k := p.CrashIndex(i, r.qseq, g.serveCrashFired); k >= 0 {
			// The replica dies as the read is dispatched: the read fails
			// over, the shipper re-bootstraps the replica, and the crash
			// counts against its breaker (a crash-looping replica should
			// end up breaker-open between re-bootstraps).
			g.serveCrashFired[k] = true
			r.down, r.node = true, nil
			r.crashes++
			r.br.done(true, now)
			g.cond.Broadcast()
			return nil, &ServeCrashError{Replica: i, Query: r.qseq}
		}
	}
	r.br.route()
	r.inflight++
	r.routed++
	g.routed++
	l := &Lease{g: g, idx: i, node: r.node}
	if p := g.cfg.ServeFaults; p != nil {
		if d := p.StragglerDelay(i, r.qseq); d > 0 {
			l.delay = time.Duration(d * float64(time.Second))
		}
	}
	return l, nil
}

// Acquire picks the serving replica for one read and leases a slot on
// it: among replicas within the staleness bound whose breakers admit
// reads, the one with the fewest in-flight reads (ties to fewest total
// routed, then lowest index), skipping any in the avoid set (indexed
// by replica; nil = none — failover retries pass the replicas they
// already tried). A nonzero affinity prefers the read's "home" replica
// (affinity mod replicas) when it is eligible and not noticeably more
// loaded, keeping repeat queries on the replica whose result cache
// already holds them.
//
// When no replica is admittable the call blocks until one catches up
// within the bound (or a breaker cooldown expires) or ctx expires —
// that wait is the bounded-staleness guarantee. When every replica is
// permanently failed it returns ErrAllFailed immediately instead of
// blocking, so callers can fail over to the leader. An injected
// serving-time crash on the picked replica returns *ServeCrashError.
func (g *Group) Acquire(ctx context.Context, affinity uint64, avoid []bool) (*Lease, error) {
	g.mu.Lock()
	waited := false
	for {
		if g.closed {
			g.mu.Unlock()
			return nil, ErrClosed
		}
		if err := ctx.Err(); err != nil {
			g.mu.Unlock()
			return nil, err
		}
		if g.allFailedLocked() {
			g.mu.Unlock()
			return nil, ErrAllFailed
		}
		l, err := g.tryPickLocked(affinity, avoid)
		if l != nil || err != nil {
			g.mu.Unlock()
			return l, err
		}
		if !waited {
			waited = true
			g.waits++
		}
		// Nothing admittable: wake on replica progress (cond broadcast),
		// on the earliest breaker cooldown expiry (nothing else fires a
		// broadcast at that moment), or on ctx.
		var wake *time.Timer
		if at := g.earliestBreakerRetryLocked(); !at.IsZero() {
			if d := time.Until(at); d > 0 {
				wake = time.AfterFunc(d, g.broadcast)
			}
		}
		stop := context.AfterFunc(ctx, g.broadcast)
		g.cond.Wait()
		stop()
		if wake != nil {
			wake.Stop()
		}
	}
}

// TryAcquire is the non-blocking Acquire used for hedged requests: it
// leases an admittable replica immediately or reports none. An
// injected crash on the picked replica fires (taking the replica down)
// and reports no lease.
func (g *Group) TryAcquire(affinity uint64, avoid []bool) (*Lease, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, false
	}
	l, err := g.tryPickLocked(affinity, avoid)
	return l, l != nil && err == nil
}

func (g *Group) broadcast() {
	g.mu.Lock()
	g.cond.Broadcast()
	g.mu.Unlock()
}

func (g *Group) allFailedLocked() bool {
	for _, r := range g.reps {
		if !r.failed {
			return false
		}
	}
	return true
}

// earliestBreakerRetryLocked returns the soonest open-breaker cooldown
// expiry among otherwise-eligible replicas (zero when none is pending).
func (g *Group) earliestBreakerRetryLocked() time.Time {
	var at time.Time
	for _, r := range g.reps {
		if !g.eligibleLocked(r) {
			continue
		}
		if t := r.br.retryAt(); !t.IsZero() && (at.IsZero() || t.Before(at)) {
			at = t
		}
	}
	return at
}

// WaitCaughtUp blocks until every non-failed replica has applied the
// current leader sequence (useful after a burst of ingest, and for
// deterministic tests).
func (g *Group) WaitCaughtUp(ctx context.Context) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		if g.closed {
			return ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		done := true
		for _, r := range g.reps {
			if r.failed {
				continue
			}
			if r.down || r.node == nil || r.applied != g.leaderSeq {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		stop := context.AfterFunc(ctx, g.broadcast)
		g.cond.Wait()
		stop()
	}
}

// Stats snapshots the group's progress and routing counters.
func (g *Group) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := Stats{
		LeaderSeq:         g.leaderSeq,
		SnapSeq:           g.snapSeq,
		LogLen:            len(g.log),
		Routed:            g.routed,
		Waits:             g.waits,
		SnapshotShipBytes: g.snapShipBytes,
		DeltaShipBytes:    g.deltaShipBytes,
	}
	for _, r := range g.reps {
		st := ReplicaStat{
			Node:       r.node,
			Breaker:    r.br.stateName(),
			Applied:    r.applied,
			Lag:        g.leaderSeq - r.applied,
			Inflight:   r.inflight,
			Routed:     r.routed,
			Bootstraps: r.bootstraps,
			Crashes:    r.crashes,
		}
		switch {
		case r.failed:
			st.State = "failed"
		case r.down || r.node == nil:
			st.State = "down"
		case st.Lag > g.cfg.MaxLag:
			st.State = "catchingup"
		default:
			st.State = "live"
		}
		s.BreakerOpens += r.br.opens
		s.BreakerProbes += r.br.probes
		s.BreakerCloses += r.br.closes
		s.Replicas = append(s.Replicas, st)
	}
	return s
}

// Close stops the shipping goroutines and fails pending Acquires. It
// does not touch the replicas' nodes (in-flight reads drain normally).
func (g *Group) Close() {
	g.mu.Lock()
	if !g.closed {
		g.closed = true
		close(g.closedCh)
	}
	g.cond.Broadcast()
	g.mu.Unlock()
	g.wg.Wait()
}

func (g *Group) eligibleLocked(r *rep) bool {
	return r.node != nil && !r.down && !r.failed && g.leaderSeq-r.applied <= g.cfg.MaxLag
}

// pickLocked implements the routing policy described on Acquire.
func (g *Group) pickLocked(affinity uint64, avoid []bool, now time.Time) int {
	admit := func(i int, r *rep) bool {
		if avoid != nil && i < len(avoid) && avoid[i] {
			return false
		}
		return g.eligibleLocked(r) && r.br.ready(now)
	}
	best := -1
	minIn := 0
	for i, r := range g.reps {
		if !admit(i, r) {
			continue
		}
		if best == -1 || r.inflight < minIn ||
			(r.inflight == minIn && r.routed < g.reps[best].routed) {
			best, minIn = i, r.inflight
		}
	}
	if best == -1 {
		return -1
	}
	if affinity != 0 {
		h := int(affinity % uint64(len(g.reps)))
		if rh := g.reps[h]; admit(h, rh) && rh.inflight <= minIn+1 {
			return h
		}
	}
	return best
}

// needsWorkLocked reports whether replica r's shipper has anything to
// do: a re-bootstrap, or unapplied committed batches.
func (g *Group) needsWorkLocked(r *rep) bool {
	if r.failed {
		return false
	}
	return r.down || r.node == nil || r.applied < g.leaderSeq
}

// nextBatchLocked returns the logged batch with Seq == applied+1, or
// nil when it has been compacted away (the replica must re-bootstrap
// from the snapshot instead).
func (g *Group) nextBatchLocked(applied uint64) *Batch {
	if len(g.log) == 0 || g.log[0].Seq > applied+1 {
		return nil
	}
	idx := int(applied + 1 - g.log[0].Seq)
	if idx >= len(g.log) {
		return nil
	}
	return &g.log[idx]
}

// fireCrashLocked consumes at most one matching planned crash for
// replica i at batch sequence seq. Each crash fires once per group,
// like the build-time fault model.
func (g *Group) fireCrashLocked(i int, seq uint64) bool {
	p := g.cfg.Faults
	if p == nil {
		return false
	}
	for k, c := range p.Crashes {
		if g.crashFired[k] {
			continue
		}
		if c.Matches(i, -1, "", int64(seq)) {
			g.crashFired[k] = true
			return true
		}
	}
	return false
}

// stallShip sleeps the injected delta-ship stall for replica i's
// application of batch seq, interruptible by Close. Called without the
// group mutex.
func (g *Group) stallShip(i int, seq uint64) {
	p := g.cfg.ServeFaults
	if p == nil {
		return
	}
	d := p.StallDelay(i, seq)
	if d <= 0 {
		return
	}
	t := time.NewTimer(time.Duration(d * float64(time.Second)))
	defer t.Stop()
	select {
	case <-t.C:
	case <-g.closedCh:
	}
}

// ship is replica i's shipping loop: re-bootstrap when down, otherwise
// apply the next committed batch, firing any planned crash at its
// exact sequence. One goroutine per replica; the leader never waits on
// it. The loop holds g.mu except across the Bootstrap/Apply calls
// themselves.
func (g *Group) ship(i int) {
	defer g.wg.Done()
	r := g.reps[i]
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		for !g.closed && !g.needsWorkLocked(r) {
			g.cond.Wait()
		}
		if g.closed {
			return
		}

		if r.down || r.node == nil || g.nextBatchLocked(r.applied) == nil {
			// Re-bootstrap from the latest snapshot; the delta log from
			// snapSeq+1 replays through the normal apply path below.
			snap, seq := g.snapshot, g.snapSeq
			r.down, r.node = true, nil
			r.booting, r.bootSeq = true, seq
			g.mu.Unlock()
			node, err := g.cfg.Bootstrap(snap)
			g.mu.Lock()
			r.booting = false
			if err != nil || node == nil {
				// A snapshot that cannot be loaded will not load next
				// time either: retire the replica instead of spinning.
				r.failed = true
			} else {
				r.node = node
				r.applied = seq
				r.down = false
				r.bootstraps++
				g.snapShipBytes += int64(len(snap))
			}
			g.cond.Broadcast()
			continue
		}

		b := g.nextBatchLocked(r.applied)
		if g.fireCrashLocked(i, b.Seq) {
			r.down, r.node = true, nil
			r.crashes++
			g.cond.Broadcast()
			continue
		}
		node := r.node
		// The batch is on the wire whether or not the apply succeeds.
		g.deltaShipBytes += int64(b.Bytes)
		g.mu.Unlock()
		g.stallShip(i, b.Seq)
		if g.cfg.BeforeApply != nil {
			g.cfg.BeforeApply(i, b.Seq)
		}
		err := node.Apply(b.Rows, b.Meas)
		g.mu.Lock()
		if err != nil {
			// Treat an apply failure as a replica fault: take the
			// replica down and re-bootstrap. If the very same batch
			// fails again after a clean re-bootstrap the fault is
			// deterministic — retire the replica rather than loop.
			if r.lastFailSeq == b.Seq {
				r.failed = true
			}
			r.lastFailSeq = b.Seq
			r.down, r.node = true, nil
			r.crashes++
		} else {
			r.applied = b.Seq
			// Clear the failure marker only once the replica applies the
			// previously failed batch (or passes it): a successful replay
			// of *earlier* batches after a re-bootstrap says nothing
			// about whether the failed batch will fail again.
			if b.Seq >= r.lastFailSeq {
				r.lastFailSeq = 0
			}
		}
		g.cond.Broadcast()
	}
}
