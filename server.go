package rolap

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/queryengine"
	"repro/internal/record"
)

// QueryMetrics reports what one served query cost.
type QueryMetrics struct {
	// SourceView is the materialized view that answered the query, as
	// sorted dimension names (empty slice for the grand-total view).
	SourceView []string
	// RowsScanned counts source rows read and tested across all
	// processors (0 on a cache hit).
	RowsScanned int64
	// BytesMoved is the query's network volume on the simulated
	// machine (0 on a cache hit).
	BytesMoved int64
	// SimSeconds is the query's simulated makespan contribution (0 on
	// a cache hit).
	SimSeconds float64
	// CacheHit reports whether the result came from the server's
	// result cache.
	CacheHit bool
	// IndexUsed reports whether any processor answered from its
	// sorted-prefix index instead of a full slice scan.
	IndexUsed bool
	// Coalesced reports that the query piggybacked on an identical
	// in-flight query instead of executing (single-flight).
	Coalesced bool
	// StaleVersions is how many ingest batches behind the live view
	// the answer was when the overload shed ladder served it from the
	// cache (0 for a fresh answer).
	StaleVersions uint64
}

// ServerOptions configures a query server.
type ServerOptions struct {
	// Workers bounds the number of queries admitted concurrently
	// (default 4). Admitted queries execute in parallel on the host,
	// each billing the simulated machine through its own ledger.
	Workers int
	// QueueDepth bounds how many queries may wait for a worker slot
	// beyond the admitted ones (default 4×Workers). Arrivals beyond
	// the queue are shed: served stale from the cache when possible,
	// rejected with a typed *OverloadError otherwise.
	QueueDepth int
	// Timeout, when > 0, bounds each query's wall-clock wait+execution
	// via a context deadline.
	Timeout time.Duration
	// CacheSize is the result cache capacity in entries (default 256;
	// negative disables caching).
	CacheSize int
	// StaleLimit bounds the first rung of the overload shed ladder: an
	// overloaded query may be answered with a cached result at most
	// StaleLimit ingest batches behind the live view (default 1;
	// negative disables stale serving entirely). Under hard overload
	// (queue full, as opposed to a deadline expiring in the queue) the
	// ladder widens to any cached staleness before rejecting.
	StaleLimit int
	// NoCoalesce disables single-flight coalescing of identical
	// concurrent queries.
	NoCoalesce bool
}

// ServerStats are cumulative counters over a server's lifetime.
type ServerStats struct {
	// Queries counts completed queries, including cache hits.
	Queries int64
	// CacheHits counts queries answered from the result cache,
	// including stale shed-ladder serves.
	CacheHits int64
	// Rejected counts arrivals refused because the queue was full.
	Rejected int64
	// Expired counts queries that hit their deadline before executing.
	Expired int64
	// Coalesced counts queries that piggybacked on an identical
	// in-flight query instead of executing.
	Coalesced int64
	// StaleServes counts overloaded queries answered with a cached
	// result within the StaleLimit bound; StaleWidened counts those
	// answered beyond it on the widened rung (queue-full overload
	// only).
	StaleServes  int64
	StaleWidened int64
	// QueueFullRejects and QueueDeadlineRejects split the typed
	// overload rejections actually returned to callers: arrivals shed
	// because the queue was full versus queries whose deadline expired
	// while waiting in the queue (the latter are also counted in
	// Expired).
	QueueFullRejects     int64
	QueueDeadlineRejects int64
	// SimSeconds is total simulated machine time spent executing.
	SimSeconds float64
	// RowsScanned is total source rows scanned.
	RowsScanned int64
	// Views breaks served queries down by *target* view — the exact
	// dimension set each query needed (comma-joined sorted names),
	// before any superset rewrite. This is the advisor's raw material:
	// a view with heavy Fallbacks and RowsScanned is paying superset
	// scans that materializing it would eliminate.
	Views map[string]ViewServeStats
}

// ViewServeStats are one target view's cumulative serving counters.
type ViewServeStats struct {
	// Hits counts queries answered from the exact view; Fallbacks
	// counts queries rewritten to a superset scan.
	Hits      int64
	Fallbacks int64
	// CacheHits counts the subset of queries (hit or fallback)
	// answered from the result cache.
	CacheHits int64
	// RowsScanned is total source rows scanned for this target.
	RowsScanned int64
}

// ErrServerOverloaded is the sentinel for overload rejections: every
// *OverloadError matches it under errors.Is, whatever its Reason.
var ErrServerOverloaded = errors.New("rolap: server overloaded, query rejected")

// OverloadReason says which admission limit shed an overloaded query.
type OverloadReason int

const (
	// OverloadQueueFull: the query arrived while Workers queries were
	// executing and QueueDepth more were already waiting.
	OverloadQueueFull OverloadReason = iota
	// OverloadQueueDeadline: the query got a queue slot but its
	// deadline expired before a worker freed up.
	OverloadQueueDeadline
)

func (r OverloadReason) String() string {
	if r == OverloadQueueDeadline {
		return "queue-deadline"
	}
	return "queue-full"
}

// OverloadError is the typed overload rejection: it says which limit
// shed the query, how deep the queue was, and when retrying is worth
// it. It matches ErrServerOverloaded under errors.Is; a
// queue-deadline rejection also matches the context error that
// expired (via Unwrap), so deadline-aware callers keep working.
type OverloadError struct {
	Reason OverloadReason
	// QueueDepth is the number of queries waiting when the query was
	// shed.
	QueueDepth int
	// RetryAfter estimates when a retry could be admitted, from the
	// observed per-query wall time and the queue depth.
	RetryAfter time.Duration
	// Cause is the context error for queue-deadline rejections (nil
	// for queue-full).
	Cause error
}

func (e *OverloadError) Error() string {
	msg := fmt.Sprintf("rolap: server overloaded (%s, queue depth %d, retry after %v)",
		e.Reason, e.QueueDepth, e.RetryAfter)
	if e.Cause != nil {
		msg += ": " + e.Cause.Error()
	}
	return msg
}

func (e *OverloadError) Is(target error) bool { return target == ErrServerOverloaded }

func (e *OverloadError) Unwrap() error { return e.Cause }

// Server is a concurrent query front end over a built cube: a bounded
// worker pool admits queries, an LRU cache keyed by the logical query
// answers repeats without touching the machine, and everything
// admitted executes scatter–gather on the cube's simulated cluster.
// Each cache entry is stamped with the source view and version its
// execution ran against, and a hit is served only while that view is
// still live at that version — results cached before an ingest batch
// cannot be served after the batch replaces that view's slices, nor
// after the advisor retires the view. Server is safe for concurrent
// use, including concurrently with Cube.Ingest and an Advisor.
//
// Under overload the server degrades instead of falling over:
// identical concurrent queries coalesce into one execution
// (single-flight), and queries the admission queue sheds are answered
// from the result cache at bounded staleness when possible — first
// within StaleLimit ingest batches of the live view, then (for
// queue-full overload) at any cached staleness — before the typed
// *OverloadError is returned.
type Server struct {
	cube  *Cube
	sem   chan struct{} // worker slots
	depth int
	// waiting counts callers blocked on sem beyond the admitted ones.
	waiting atomic.Int64
	timeout time.Duration
	cache   *queryengine.Cache

	staleLimit int // -1 disables stale serving
	coalesce   bool
	flMu       sync.Mutex
	flights    map[string]*flight

	vsMu      sync.Mutex
	viewStats map[string]*ViewServeStats

	queries       atomic.Int64
	hits          atomic.Int64
	rejected      atomic.Int64
	expired       atomic.Int64
	coalesced     atomic.Int64
	staleServes   atomic.Int64
	staleWidened  atomic.Int64
	queueFull     atomic.Int64
	queueDeadline atomic.Int64
	simNanos      atomic.Int64 // SimSeconds accumulated in rounded nanoseconds
	rowsTotal     atomic.Int64
	wallMicros    atomic.Int64 // wall time of completed executions
	wallCount     atomic.Int64
}

// flight is one in-flight execution identical queries coalesce onto:
// the first arrival (the leader) executes, later arrivals block on
// done and share the outcome.
type flight struct {
	done chan struct{}
	c    cached
	qm   QueryMetrics
	err  error
}

// NewServer returns a query server over the cube, built or loaded from
// a snapshot: both carry the machine and engine it executes on.
func (c *Cube) NewServer(opts ServerOptions) (*Server, error) {
	w := opts.Workers
	if w == 0 {
		w = 4
	}
	if w < 1 {
		return nil, fmt.Errorf("rolap: server needs at least one worker, got %d", w)
	}
	depth := opts.QueueDepth
	if depth == 0 {
		depth = 4 * w
	}
	if depth < 0 {
		depth = 0
	}
	stale := opts.StaleLimit
	if stale == 0 {
		stale = 1
	}
	if stale < 0 {
		stale = -1
	}
	s := &Server{
		cube:       c,
		sem:        make(chan struct{}, w),
		depth:      depth,
		timeout:    opts.Timeout,
		staleLimit: stale,
		coalesce:   !opts.NoCoalesce,
		flights:    make(map[string]*flight),
		viewStats:  make(map[string]*ViewServeStats),
	}
	size := opts.CacheSize
	if size == 0 {
		size = 256
	}
	if size > 0 {
		s.cache = queryengine.NewCache(size)
	}
	return s, nil
}

// cached pairs a query's merged result table with the metrics of the
// execution that produced it. The table is immutable and safely shared
// across hits. met.Source and met.Version stamp the entry: a hit is
// valid only while that view is live at that version.
type cached struct {
	rows *record.Table
	met  queryengine.Metrics
}

// Do answers q like Cube.Do, with admission control, deadline, caching
// and per-query cost metrics.
func (s *Server) Do(ctx context.Context, q Query) (*View, QueryMetrics, error) {
	return s.cube.do(q, func(eq queryengine.Query) (*record.Table, QueryMetrics, error) {
		c, qm, err := s.serve(ctx, eq)
		return c.rows, qm, err
	})
}

// GroupBy is the served form of Cube.GroupBy.
func (s *Server) GroupBy(ctx context.Context, dims []string, filters map[string]uint32) (*View, QueryMetrics, error) {
	return groupBy(ctx, s, dims, filters)
}

// Aggregate is the served form of Cube.Aggregate.
func (s *Server) Aggregate(ctx context.Context, dims []string, key []uint32) (int64, QueryMetrics, error) {
	return aggregate(ctx, s, dims, key)
}

// RangeAggregate is the served form of Cube.RangeAggregate.
func (s *Server) RangeAggregate(ctx context.Context, dims []string, lo, hi []uint32) (int64, QueryMetrics, error) {
	return rangeAggregate(ctx, s, dims, lo, hi)
}

// serve runs one query through the pipeline and, on success, folds it
// into the per-target-view counters the advisor mines. The cache key is
// the logical query, free of any view or version: the source is picked
// at execution, after admission, so each cached entry carries the
// source and version its execution actually ran against, validated on
// every hit.
func (s *Server) serve(ctx context.Context, q queryengine.Query) (cached, QueryMetrics, error) {
	c, qm, err := s.servePipeline(ctx, q.Key(), q)
	if err == nil {
		s.noteViewServe(q, qm)
	}
	return c, qm, err
}

// noteViewServe credits one served query to its target view's
// counters: a hit if the need was answered from the exact view, a
// fallback if it was rewritten to a superset scan.
func (s *Server) noteViewServe(q queryengine.Query, qm QueryMetrics) {
	target := strings.Join(s.cube.sourceViewNames(q.Need()), ",")
	source := strings.Join(qm.SourceView, ",")
	s.vsMu.Lock()
	defer s.vsMu.Unlock()
	vs := s.viewStats[target]
	if vs == nil {
		vs = &ViewServeStats{}
		s.viewStats[target] = vs
	}
	if target == source {
		vs.Hits++
	} else {
		vs.Fallbacks++
	}
	if qm.CacheHit || qm.Coalesced {
		vs.CacheHits++
	}
	vs.RowsScanned += qm.RowsScanned
}

// servePipeline runs the cache → coalesce → admission → execute
// pipeline for one query and returns the cached entry (fresh
// or reused) plus metrics.
func (s *Server) servePipeline(ctx context.Context, key string, q queryengine.Query) (cached, QueryMetrics, error) {
	if s.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.timeout)
		defer cancel()
	}

	// Cache first: hits bypass admission entirely — they cost nothing
	// on the simulated machine. A hit is honored only while the entry's
	// source view is live at its stamped version; a stale entry (an
	// ingest batch replaced the view's slices, or the advisor retired
	// it, since the entry was computed) falls through to execution,
	// which overwrites it under the same key.
	if s.cache != nil {
		if v, ok := s.cache.Get(key); ok {
			c := v.(cached)
			if ver, live := s.cube.engine.Topology().Version(c.met.Source); live && ver == c.met.Version {
				s.queries.Add(1)
				s.hits.Add(1)
				return c, QueryMetrics{
					SourceView: s.cube.sourceViewNames(c.met.Source),
					CacheHit:   true,
					IndexUsed:  c.met.IndexUsed,
				}, nil
			}
		}
	}

	if !s.coalesce {
		return s.execute(ctx, key, q)
	}

	// Single-flight: identical concurrent queries ride one execution.
	// Flights register before admission, so a stampede of one hot query
	// consumes one queue slot, not the whole queue — the flash-crowd
	// failure mode is exactly N identical misses arriving at once.
	s.flMu.Lock()
	if f, ok := s.flights[key]; ok {
		s.flMu.Unlock()
		select {
		case <-f.done:
			if f.err != nil {
				return cached{}, QueryMetrics{}, f.err
			}
			s.queries.Add(1)
			s.coalesced.Add(1)
			qm := f.qm
			qm.Coalesced = true
			// The leader paid for the execution; followers report a free
			// ride (like a cache hit) so cost accounting stays single-count.
			qm.RowsScanned, qm.BytesMoved, qm.SimSeconds = 0, 0, 0
			return f.c, qm, nil
		case <-ctx.Done():
			s.expired.Add(1)
			return cached{}, QueryMetrics{}, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.flMu.Unlock()

	c, qm, err := s.execute(ctx, key, q)
	f.c, f.qm, f.err = c, qm, err
	s.flMu.Lock()
	delete(s.flights, key)
	s.flMu.Unlock()
	close(f.done)
	return c, qm, err
}

// execute runs the admission → deadline → machine pipeline, degrading
// through the shed ladder when admission refuses the query.
func (s *Server) execute(ctx context.Context, key string, q queryengine.Query) (cached, QueryMetrics, error) {
	if oe := s.admit(ctx); oe != nil {
		if c, qm, ok := s.serveStale(key, oe.Reason); ok {
			return c, qm, nil
		}
		switch oe.Reason {
		case OverloadQueueFull:
			s.rejected.Add(1)
			s.queueFull.Add(1)
		case OverloadQueueDeadline:
			s.expired.Add(1)
			s.queueDeadline.Add(1)
		}
		return cached{}, QueryMetrics{}, oe
	}
	defer func() { <-s.sem }()

	// The deadline covers queueing and is re-checked here; execution on
	// the simulated machine is not preempted once started.
	select {
	case <-ctx.Done():
		s.expired.Add(1)
		return cached{}, QueryMetrics{}, ctx.Err()
	default:
	}

	start := time.Now()
	rows, em, err := s.cube.engine.Execute(q)
	if err != nil {
		return cached{}, QueryMetrics{}, err
	}
	s.wallMicros.Add(time.Since(start).Microseconds())
	s.wallCount.Add(1)
	c := cached{rows: rows, met: em}
	if s.cache != nil {
		s.cache.Put(key, c)
	}
	s.queries.Add(1)
	// Whole rounded nanoseconds per query: the total is then an exact
	// integer sum, the same in any commit order, and within 0.5 ns per
	// query of the per-query SimSeconds it adds up.
	s.simNanos.Add(int64(math.Round(em.SimSeconds * 1e9)))
	s.rowsTotal.Add(em.RowsScanned)
	return c, s.cube.queryMetrics(em), nil
}

// serveStale is the overload shed ladder's cache rung: answer a shed
// query with the cached result for its key, first within the
// StaleLimit bound, then — only under hard queue-full overload — at
// any staleness. Freshness is measured in ingest batches behind the
// live source view (version distance); an entry whose source has been
// retired has no measurable staleness and is not served. Reports false
// when no rung applies and the query must be rejected.
func (s *Server) serveStale(key string, reason OverloadReason) (cached, QueryMetrics, bool) {
	if s.cache == nil || s.staleLimit < 0 {
		return cached{}, QueryMetrics{}, false
	}
	v, ok := s.cache.Get(key)
	if !ok {
		return cached{}, QueryMetrics{}, false
	}
	c := v.(cached)
	ver, live := s.cube.engine.Topology().Version(c.met.Source)
	if !live {
		return cached{}, QueryMetrics{}, false
	}
	dist := ver - c.met.Version
	if dist <= uint64(s.staleLimit) {
		s.staleServes.Add(1)
	} else if reason == OverloadQueueFull {
		s.staleWidened.Add(1)
	} else {
		return cached{}, QueryMetrics{}, false
	}
	s.queries.Add(1)
	s.hits.Add(1)
	return c, QueryMetrics{
		SourceView:    s.cube.sourceViewNames(c.met.Source),
		CacheHit:      true,
		IndexUsed:     c.met.IndexUsed,
		StaleVersions: dist,
	}, true
}

// admit acquires a worker slot, respecting the queue depth and the
// caller's deadline. A refusal comes back as a typed *OverloadError
// (not yet counted — the caller records it only if the shed ladder
// fails to rescue the query).
func (s *Server) admit(ctx context.Context) *OverloadError {
	select {
	case s.sem <- struct{}{}: // fast path: free worker
		return nil
	default:
	}
	if s.waiting.Add(1) > int64(s.depth) {
		s.waiting.Add(-1)
		return &OverloadError{
			Reason:     OverloadQueueFull,
			QueueDepth: int(s.waiting.Load()),
			RetryAfter: s.retryAfter(),
		}
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return &OverloadError{
			Reason:     OverloadQueueDeadline,
			QueueDepth: int(s.waiting.Load()),
			RetryAfter: s.retryAfter(),
			Cause:      ctx.Err(),
		}
	}
}

// retryAfter estimates how long until a shed query could be admitted:
// the observed mean wall time per execution, scaled by how many
// queued queries must drain through the worker pool first.
func (s *Server) retryAfter() time.Duration {
	per := time.Millisecond
	if n := s.wallCount.Load(); n > 0 {
		per = time.Duration(s.wallMicros.Load()/n) * time.Microsecond
		if per < 100*time.Microsecond {
			per = 100 * time.Microsecond
		}
	}
	waves := s.waiting.Load()/int64(cap(s.sem)) + 1
	return time.Duration(waves) * per
}

// Stats returns the server's cumulative counters.
func (s *Server) Stats() ServerStats {
	views := make(map[string]ViewServeStats)
	s.vsMu.Lock()
	for name, vs := range s.viewStats {
		views[name] = *vs
	}
	s.vsMu.Unlock()
	return ServerStats{
		Views:                views,
		Queries:              s.queries.Load(),
		CacheHits:            s.hits.Load(),
		Rejected:             s.rejected.Load(),
		Expired:              s.expired.Load(),
		Coalesced:            s.coalesced.Load(),
		StaleServes:          s.staleServes.Load(),
		StaleWidened:         s.staleWidened.Load(),
		QueueFullRejects:     s.queueFull.Load(),
		QueueDeadlineRejects: s.queueDeadline.Load(),
		SimSeconds:           float64(s.simNanos.Load()) / 1e9,
		RowsScanned:          s.rowsTotal.Load(),
	}
}
