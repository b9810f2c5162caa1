package rolap

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queryengine"
	"repro/internal/replica"
)

// ResilienceOptions configure the replica set's serving-path failure
// policy: bounded retry with failover, per-replica circuit breakers,
// optional hedged requests, and the leader-cube fallback of last
// resort. The zero value enables sane defaults; set a field negative
// to disable the corresponding mechanism where noted.
type ResilienceOptions struct {
	// MaxRetries bounds how many times one query fails over to a
	// different replica after a replica-indicting failure or overload
	// (default 3; negative disables retries — first failure is final).
	MaxRetries int
	// RetryBackoff is the base failover backoff: retry k waits
	// RetryBackoff × 2^(k-1), capped at 100ms (default 1ms).
	RetryBackoff time.Duration
	// FailoverWait bounds how long a query waits for an eligible
	// replica before falling back to the leader (default 50ms). Only
	// meaningful while leader fallback is enabled; without it queries
	// wait out their own deadline as before.
	FailoverWait time.Duration
	// BreakerThreshold is the consecutive-failure count that opens a
	// replica's circuit breaker (default 3; negative disables
	// breakers). BreakerCooldown is how long an open breaker rejects
	// routing before admitting a half-open probe (default 100ms).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Hedge enables hedged reads: when a query's first attempt has not
	// completed within the observed HedgePercentile latency (at least
	// HedgeFloor), a second attempt launches on a different replica
	// and the first success wins. Defaults: percentile 0.95, floor
	// 1ms. Hedging needs a short latency history before it arms.
	Hedge           bool
	HedgePercentile float64
	HedgeFloor      time.Duration
	// DisableLeaderFallback makes replica exhaustion an error instead
	// of serving the query from the leader's own cube.
	DisableLeaderFallback bool
}

// ReplicaOptions configures a replicated serving tier over one ingest
// leader.
type ReplicaOptions struct {
	// Replicas is the number of read replicas (default 2).
	Replicas int
	// MaxLag is the staleness bound in committed batches: a replica
	// serves reads only while it is within MaxLag batches of the
	// leader. 0 means replicas serve only when fully caught up; reads
	// wait (up to FailoverWait, then the leader fallback; up to their
	// own deadline with fallback disabled) while no replica is within
	// the bound.
	MaxLag uint64
	// SnapshotEvery refreshes the bootstrap snapshot every N committed
	// batches, compacting the delta log (default 16; negative disables
	// refresh — crashed replicas then replay the whole log from the
	// creation-time snapshot).
	SnapshotEvery int
	// Server configures each replica's query server (workers, queue,
	// cache, timeout), and the leader fallback server.
	Server ServerOptions
	// Resilience configures failover, breakers, hedging, and the
	// leader fallback.
	Resilience ResilienceOptions
	// Faults, when non-nil, injects deterministic replica crashes:
	// Crash.Processor is the replica index and Crash.Superstep the
	// batch sequence it dies at, just before applying that batch. The
	// crashed replica re-bootstraps from the latest snapshot and
	// replays the delta log. Drops, corruptions and stragglers in the
	// plan are ignored — replication ships committed batches, not
	// h-relations.
	Faults *FaultPlan
	// ServeFaults, when non-nil, injects deterministic serving-time
	// faults: replica crashes keyed on per-replica query ordinals,
	// query stragglers, and delta-ship stalls. Failover and hedging
	// mask them; answers are unchanged.
	ServeFaults *ServeFaultPlan
}

// hedgeWindow is the latency ring the hedge threshold is computed
// over; hedgeWarmup is how many samples must land before hedging arms.
const (
	hedgeWindow = 128
	hedgeWarmup = 16
)

// ReplicaSet is a replicated serving tier: N read replicas, each a
// full cube bootstrapped from a snapshot of the leader and advanced by
// applying the leader's committed ingest batches in commit order.
// Reads are load-balanced across the replicas within the staleness
// bound, with cache affinity — repeat queries prefer the replica whose
// result cache already holds them. The leader keeps ingesting through
// its normal Ingest path and never blocks on replica progress.
//
// Because the delta pipeline is deterministic and snapshots re-scatter
// view slices on the leader's partition boundaries, a replica that has
// applied batch k serves exactly what the leader served as of batch k
// — same views, same per-view version counters.
//
// Reads carry a failure policy (ResilienceOptions): a failed attempt
// releases its lease as a breaker strike and retries on a different
// replica with exponential backoff; slow attempts optionally hedge
// onto a second replica; and when no replica can serve — all crashed,
// retired, or beyond the staleness bound past the failover wait — the
// query falls back to the leader's own cube rather than erroring.
// Whatever the fault pattern, answers equal a fault-free run's.
type ReplicaSet struct {
	leader    *Cube
	leaderSrv *Server // fallback server over the leader's cube (nil when disabled)
	group     *replica.Group
	hookID    int
	closed    bool
	n         int
	res       ResilienceOptions

	latMu  sync.Mutex
	lat    [hedgeWindow]time.Duration
	latPos int
	latN   int

	retries      atomic.Int64
	failovers    atomic.Int64
	leaderFalls  atomic.Int64
	hedged       atomic.Int64
	hedgesWon    atomic.Int64
	hedgesLost   atomic.Int64
	serveCrashes atomic.Int64
}

// replicaNode is one replica's serving state: its own cube (loaded
// from a leader snapshot, advanced by shipped batches) and a query
// server with a private result cache and prefix indexes.
type replicaNode struct {
	cube *Cube
	srv  *Server
}

// Apply implements replica.Node: one committed leader batch, rows in
// internal dimension order.
func (n *replicaNode) Apply(rows [][]uint32, meas []int64) error {
	return n.cube.applyShippedBatch(rows, meas)
}

// NewReplicaSet bootstraps a replicated serving tier over the cube
// (built or loaded from a snapshot). The snapshot, the replica
// bootstraps, and the commit-hook registration happen atomically with
// respect to Ingest, so no batch can slip between the snapshot and the
// delta stream.
func (c *Cube) NewReplicaSet(opts ReplicaOptions) (*ReplicaSet, error) {
	n := opts.Replicas
	if n == 0 {
		n = 2
	}
	if n < 1 {
		return nil, fmt.Errorf("rolap: replica set needs at least one replica, got %d", n)
	}
	snapEvery := opts.SnapshotEvery
	if snapEvery == 0 {
		snapEvery = 16
	}
	srvOpts := opts.Server

	res := opts.Resilience
	if res.MaxRetries == 0 {
		res.MaxRetries = 3
	}
	if res.MaxRetries < 0 {
		res.MaxRetries = 0
	}
	if res.RetryBackoff == 0 {
		res.RetryBackoff = time.Millisecond
	}
	if res.FailoverWait == 0 {
		res.FailoverWait = 50 * time.Millisecond
	}
	if res.HedgePercentile == 0 {
		res.HedgePercentile = 0.95
	}
	if res.HedgePercentile < 0 || res.HedgePercentile > 1 {
		return nil, fmt.Errorf("rolap: hedge percentile %v out of (0,1]", res.HedgePercentile)
	}
	if res.HedgeFloor == 0 {
		res.HedgeFloor = time.Millisecond
	}

	cfg := replica.Config{
		Replicas:    n,
		MaxLag:      opts.MaxLag,
		Faults:      opts.Faults.internal(),
		ServeFaults: opts.ServeFaults.internal(),
		Breaker: replica.BreakerConfig{
			Threshold: res.BreakerThreshold,
			Cooldown:  res.BreakerCooldown,
		},
		Bootstrap: func(snapshot []byte) (replica.Node, error) {
			cube, err := LoadCube(bytes.NewReader(snapshot))
			if err != nil {
				return nil, err
			}
			srv, err := cube.NewServer(srvOpts)
			if err != nil {
				return nil, err
			}
			return &replicaNode{cube: cube, srv: srv}, nil
		},
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(n); err != nil {
			return nil, fmt.Errorf("rolap: %w", err)
		}
	}
	if cfg.ServeFaults != nil {
		if err := cfg.ServeFaults.Validate(n); err != nil {
			return nil, fmt.Errorf("rolap: %w", err)
		}
	}

	rs := &ReplicaSet{leader: c, n: n, res: res}
	if !res.DisableLeaderFallback {
		srv, err := c.NewServer(srvOpts)
		if err != nil {
			return nil, err
		}
		rs.leaderSrv = srv
	}

	c.ingMu.Lock()
	defer c.ingMu.Unlock()

	// Bootstrap snapshots exclude the leader's pending buffer: those
	// facts are not yet part of any committed batch, and when they
	// commit they arrive at the replicas as a shipped batch — including
	// them here would double count them.
	var buf bytes.Buffer
	if err := c.capture(false).encode(&buf); err != nil {
		return nil, err
	}
	group, err := replica.New(cfg, buf.Bytes(), 0)
	if err != nil {
		return nil, err
	}
	rs.group = group

	rs.hookID = c.addCommitHookLocked(func(rows [][]uint32, meas []int64) {
		seq := group.Commit(rows, meas)
		if snapEvery > 0 && seq%uint64(snapEvery) == 0 {
			// Refresh the bootstrap snapshot at this exact commit: the
			// hook runs under ingMu with the pending buffer just
			// cleared, so the serialized cube is precisely the
			// post-batch-seq state. Capture and encode are leader-local
			// work — they never wait on replica progress.
			var b bytes.Buffer
			if err := c.capture(false).encode(&b); err == nil {
				group.SetSnapshot(b.Bytes(), seq)
			}
		}
	})
	return rs, nil
}

// Do answers q from a replica within the staleness bound, like
// Server.Do, with failover, hedging and the leader fallback per
// ResilienceOptions. The query is validated against the schema first,
// so user errors (unknown dimensions, bad bounds or rank) return
// immediately instead of counting as replica failures and tripping
// breakers.
func (r *ReplicaSet) Do(ctx context.Context, q Query) (*View, QueryMetrics, error) {
	res, err := r.leader.resolve(q)
	if err != nil {
		return nil, QueryMetrics{}, err
	}
	return r.resilient(ctx, q, affinity(res))
}

// GroupBy is the replicated form of Cube.GroupBy.
func (r *ReplicaSet) GroupBy(ctx context.Context, dims []string, filters map[string]uint32) (*View, QueryMetrics, error) {
	return groupBy(ctx, r, dims, filters)
}

// Aggregate is the replicated form of Cube.Aggregate.
func (r *ReplicaSet) Aggregate(ctx context.Context, dims []string, key []uint32) (int64, QueryMetrics, error) {
	return aggregate(ctx, r, dims, key)
}

// RangeAggregate is the replicated form of Cube.RangeAggregate.
func (r *ReplicaSet) RangeAggregate(ctx context.Context, dims []string, lo, hi []uint32) (int64, QueryMetrics, error) {
	return rangeAggregate(ctx, r, dims, lo, hi)
}

// errFailoverWait distinguishes "no replica became eligible within the
// failover wait" from the caller's own deadline expiring.
var errFailoverWait = errors.New("rolap: no replica available within the failover wait")

// replicaIndicting reports whether a read error indicts the replica
// that served it (crash, execution failure) — as opposed to overload
// or the caller's own deadline, which are not the replica's fault and
// must not trip its breaker.
func replicaIndicting(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrServerOverloaded) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled) {
		return false
	}
	return true
}

// retryableRead reports whether a failed attempt is worth retrying on
// a different replica: replica-indicting failures and overload (the
// next replica's queue may be free). Deadline and cancellation are
// final — there is no time left to retry into.
func retryableRead(err error) bool {
	return replicaIndicting(err) || errors.Is(err, ErrServerOverloaded)
}

// resilient is the serving path's failure policy around one query:
// acquire a replica, run the attempt (hedged when configured), and on
// a retryable failure mark the replica in the avoid set and fail over
// with exponential backoff, up to MaxRetries. When replicas are
// exhausted — retries spent, all permanently failed, or none eligible
// within FailoverWait — the query is served by the leader's own cube
// (unless DisableLeaderFallback).
func (r *ReplicaSet) resilient(ctx context.Context, q Query, affinity uint64) (*View, QueryMetrics, error) {
	avoid := make([]bool, r.n)
	attempts := 0
	var lastErr error
	for {
		if err := ctx.Err(); err != nil {
			return nil, QueryMetrics{}, err
		}
		lease, err := r.acquireLease(ctx, affinity, avoid)
		if err != nil {
			var sc *replica.ServeCrashError
			switch {
			case errors.As(err, &sc):
				// The picked replica died as the read was dispatched
				// (injected serve crash): fail over immediately.
				r.serveCrashes.Add(1)
				r.retries.Add(1)
				attempts++
				if attempts <= r.res.MaxRetries {
					continue
				}
				return r.leaderFallback(ctx, q, err)
			case errors.Is(err, replica.ErrAllFailed):
				return r.leaderFallback(ctx, q, err)
			case errors.Is(err, errFailoverWait):
				if anyTrue(avoid) {
					// The avoided replicas' queues may have drained since
					// they failed us; give the full set one more chance
					// before abandoning replicas entirely.
					clear(avoid)
					continue
				}
				return r.leaderFallback(ctx, q, lastErr)
			default:
				return nil, QueryMetrics{}, err
			}
		}
		out, qm, err := r.attempt(ctx, lease, q, affinity, avoid)
		if err == nil {
			if attempts > 0 {
				r.failovers.Add(1)
			}
			return out, qm, nil
		}
		lastErr = err
		if !retryableRead(err) || ctx.Err() != nil {
			return nil, qm, err
		}
		attempts++
		r.retries.Add(1)
		if attempts > r.res.MaxRetries {
			return r.leaderFallback(ctx, q, lastErr)
		}
		if d := r.backoff(attempts); d > 0 {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return nil, QueryMetrics{}, ctx.Err()
			}
		}
	}
}

// acquireLease bounds the wait for an eligible replica by FailoverWait
// when the leader fallback is available, so a fleet-wide outage
// degrades to leader reads instead of queries waiting out their
// deadlines.
func (r *ReplicaSet) acquireLease(ctx context.Context, affinity uint64, avoid []bool) (*replica.Lease, error) {
	actx := ctx
	if r.leaderSrv != nil && r.res.FailoverWait > 0 {
		var cancel context.CancelFunc
		actx, cancel = context.WithTimeout(ctx, r.res.FailoverWait)
		defer cancel()
	}
	l, err := r.group.Acquire(actx, affinity, avoid)
	if err != nil && actx.Err() != nil && ctx.Err() == nil {
		return nil, errFailoverWait
	}
	return l, err
}

// attempt runs one leased attempt, hedging a second replica when the
// first is slower than the observed latency percentile. Failed
// replicas are marked in the avoid set for the caller's next retry.
func (r *ReplicaSet) attempt(ctx context.Context, lease *replica.Lease, q Query, affinity uint64, avoid []bool) (*View, QueryMetrics, error) {
	ch := make(chan attemptResult, 2)
	r.launch(ctx, lease, q, false, ch)
	launched := 1
	var hedgeC <-chan time.Time
	if r.res.Hedge {
		if d := r.hedgeThreshold(); d > 0 {
			t := time.NewTimer(d)
			defer t.Stop()
			hedgeC = t.C
		}
	}
	for got := 0; ; {
		select {
		case res := <-ch:
			got++
			if res.err == nil {
				r.recordLatency(res.dur)
				if launched == 2 {
					if res.hedge {
						r.hedgesWon.Add(1)
					} else {
						r.hedgesLost.Add(1)
					}
				}
				return res.out, res.qm, nil
			}
			if retryableRead(res.err) {
				avoid[res.replica] = true
			}
			if got == launched {
				return res.out, res.qm, res.err
			}
			// One attempt failed but the other is still in flight: its
			// success can still win the query.
		case <-hedgeC:
			hedgeC = nil
			havoid := make([]bool, len(avoid))
			copy(havoid, avoid)
			havoid[lease.Replica()] = true
			// Hedge only if a second replica is admittable right now —
			// a hedge that queues behind the same congestion is pure
			// added load.
			if l2, ok := r.group.TryAcquire(affinity, havoid); ok {
				launched = 2
				r.hedged.Add(1)
				r.launch(ctx, l2, q, true, ch)
			}
		case <-ctx.Done():
			// In-flight attempts see the same ctx, finish, and release
			// their leases; the buffered channel absorbs their results.
			return nil, QueryMetrics{}, ctx.Err()
		}
	}
}

type attemptResult struct {
	out     *View
	qm      QueryMetrics
	err     error
	replica int
	hedge   bool
	dur     time.Duration
}

// launch runs one attempt on its leased replica in a goroutine,
// sleeping any injected straggler delay first (the replica is slow,
// not broken), and releases the lease with the attempt's verdict.
func (r *ReplicaSet) launch(ctx context.Context, lease *replica.Lease, q Query, hedge bool, ch chan attemptResult) {
	go func() {
		start := time.Now()
		var out *View
		var qm QueryMetrics
		err := ctx.Err()
		if err == nil {
			if d := lease.Delay(); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-t.C:
				case <-ctx.Done():
					t.Stop()
					err = ctx.Err()
				}
			}
		}
		if err == nil {
			out, qm, err = lease.Node().(*replicaNode).srv.Do(ctx, q)
		}
		lease.Release(replicaIndicting(err))
		ch <- attemptResult{out: out, qm: qm, err: err, replica: lease.Replica(), hedge: hedge, dur: time.Since(start)}
	}()
}

// leaderFallback serves the query from the leader's own cube — the
// last rung before an error. cause is returned instead when fallback
// is disabled.
func (r *ReplicaSet) leaderFallback(ctx context.Context, q Query, cause error) (*View, QueryMetrics, error) {
	if r.leaderSrv == nil {
		if cause == nil {
			cause = errFailoverWait
		}
		return nil, QueryMetrics{}, cause
	}
	r.leaderFalls.Add(1)
	return r.leaderSrv.Do(ctx, q)
}

// backoff is the exponential failover backoff for retry k (1-based),
// capped at 100ms.
func (r *ReplicaSet) backoff(k int) time.Duration {
	d := r.res.RetryBackoff
	for i := 1; i < k && d < 100*time.Millisecond; i++ {
		d *= 2
	}
	if d > 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	return d
}

// hedgeThreshold is the current hedge trigger: the HedgePercentile of
// the last hedgeWindow successful attempt latencies, floored at
// HedgeFloor; 0 (hedging disarmed) until hedgeWarmup samples land.
func (r *ReplicaSet) hedgeThreshold() time.Duration {
	r.latMu.Lock()
	defer r.latMu.Unlock()
	if r.latN < hedgeWarmup {
		return 0
	}
	n := r.latN
	if n > hedgeWindow {
		n = hedgeWindow
	}
	buf := make([]time.Duration, n)
	copy(buf, r.lat[:n])
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	idx := int(float64(n-1) * r.res.HedgePercentile)
	d := buf[idx]
	if d < r.res.HedgeFloor {
		d = r.res.HedgeFloor
	}
	return d
}

// recordLatency feeds one successful attempt's wall time into the
// hedge-threshold ring. Failures are excluded on purpose: a crash
// that fails in microseconds would drag the percentile down and set
// off hedge storms.
func (r *ReplicaSet) recordLatency(d time.Duration) {
	r.latMu.Lock()
	r.lat[r.latPos] = d
	r.latPos = (r.latPos + 1) % hedgeWindow
	r.latN++
	r.latMu.Unlock()
}

func anyTrue(bs []bool) bool {
	for _, b := range bs {
		if b {
			return true
		}
	}
	return false
}

// WaitCaughtUp blocks until every non-failed replica has applied the
// leader's last committed batch, or ctx expires.
func (r *ReplicaSet) WaitCaughtUp(ctx context.Context) error {
	return r.group.WaitCaughtUp(ctx)
}

// CrashReplica takes replica i down as if it had failed; its shipper
// re-bootstraps it from the latest snapshot and replays the delta log.
func (r *ReplicaSet) CrashReplica(i int) error {
	return r.group.Crash(i)
}

// RetireReplica permanently removes replica i from service — no
// re-bootstrap, no routing; in-flight reads drain normally. With every
// replica retired, reads fall back to the leader (or fail, with
// DisableLeaderFallback).
func (r *ReplicaSet) RetireReplica(i int) error {
	return r.group.Retire(i)
}

// Stats snapshots the replica set's replication and serving counters.
func (r *ReplicaSet) Stats() ReplicaSetStats {
	gs := r.group.Stats()
	s := ReplicaSetStats{
		LeaderSeq:         gs.LeaderSeq,
		SnapshotSeq:       gs.SnapSeq,
		DeltaLogLen:       gs.LogLen,
		Routed:            gs.Routed,
		StalenessWaits:    gs.Waits,
		SnapshotShipBytes: gs.SnapshotShipBytes,
		DeltaShipBytes:    gs.DeltaShipBytes,
		Resilience: ResilienceStats{
			Retries:         r.retries.Load(),
			Failovers:       r.failovers.Load(),
			LeaderFallbacks: r.leaderFalls.Load(),
			HedgesLaunched:  r.hedged.Load(),
			HedgesWon:       r.hedgesWon.Load(),
			HedgesLost:      r.hedgesLost.Load(),
			ServeCrashes:    r.serveCrashes.Load(),
			BreakerOpens:    gs.BreakerOpens,
			BreakerProbes:   gs.BreakerProbes,
			BreakerCloses:   gs.BreakerCloses,
		},
	}
	for _, rep := range gs.Replicas {
		rs := ReplicaStats{
			State:      rep.State,
			Breaker:    rep.Breaker,
			Applied:    rep.Applied,
			Lag:        rep.Lag,
			Routed:     rep.Routed,
			Bootstraps: rep.Bootstraps,
			Crashes:    rep.Crashes,
		}
		if node, ok := rep.Node.(*replicaNode); ok && node != nil {
			rs.Server = node.srv.Stats()
		}
		s.Replicas = append(s.Replicas, rs)
	}
	if r.leaderSrv != nil {
		s.LeaderServer = r.leaderSrv.Stats()
	}
	return s
}

// Close detaches the replica set from the leader's commit stream and
// stops the shipping goroutines. The leader keeps ingesting; in-flight
// reads drain normally.
func (r *ReplicaSet) Close() {
	if r.closed {
		return
	}
	r.closed = true
	r.leader.removeCommitHook(r.hookID)
	r.group.Close()
}

// affinity hashes a resolved query into a stable routing affinity, so
// repeat queries land on the replica whose result cache already holds
// them. Bounds are kept sorted by dimension, so the hash does not
// depend on the order the caller listed them in.
func affinity(q queryengine.Query) uint64 {
	h := math.Float64bits(q.Percentile)
	// Fibonacci hashing; routing takes the affinity mod the replica
	// count, so the well-mixed high bits are folded down.
	mix := func(v int) {
		h = (h ^ uint64(v)) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	for _, dim := range q.Group {
		mix(dim)
	}
	mix(-1) // "group by a" is not "where a"
	for _, b := range q.Bounds {
		mix(b.Dim)
		mix(int(b.Lo))
		mix(int(b.Hi))
	}
	return h | 1<<63 // 0 is the group's "no affinity"
}
