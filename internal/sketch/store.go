package sketch

import (
	"container/list"
	"fmt"
	"math"
	"sync"

	"repro/internal/record"
)

// Measure-word handle layout. A holistic measure word is either a raw
// value (>= 0, an implicit singleton sketch) or a negative handle
// -((shard<<40)|idx)-1 naming a sketch in the store. Shards 0..p-1
// belong to the build/ingest ranks — each rank allocates sequentially
// into its own shard, so handle words are deterministic for a fixed
// rank count regardless of goroutine scheduling. Shard ids at or above
// scratchShardBase are query-scratch shards: allocated per query
// execution, released when its results are resolved, never reused.
const (
	handleIdxBits    = 40
	handleIdxMask    = int64(1)<<handleIdxBits - 1
	scratchShardBase = 1 << 20
)

func encodeHandle(shard uint32, idx int) int64 {
	return -(int64(shard)<<handleIdxBits | int64(idx)) - 1
}

func decodeHandle(h int64) (shard uint32, idx int) {
	v := -h - 1
	return uint32(v >> handleIdxBits), int(v & handleIdxMask)
}

// entry is one sketch's slot: the sealed serialized blob, and/or the
// decoded state. Open entries (mid-combine accumulators) always hold
// decoded state and no blob; sealed entries always hold the blob and
// cache the decode in the store's bounded arena.
type entry struct {
	blob []byte
	dec  Mergeable
	res  int           // resident bytes charged for dec
	el   *list.Element // arena LRU position while sealed and decoded
	open bool
}

type shard struct {
	entries []*entry
}

// Stats is a point-in-time snapshot of a store's footprint.
type Stats struct {
	// Entries is the number of live sketches (open + sealed).
	Entries int
	// SealedBytes is the total serialized size of sealed sketches —
	// what the store costs on disk or over a snapshot wire.
	SealedBytes int
	// Resident is the decoded state currently held in memory.
	Resident int
	// PeakResident is the high-water mark of Resident — the memory the
	// build actually needed, which the arena budget bounds for sealed
	// decodes (open accumulators ride on top).
	PeakResident int
	// Decodes counts blob-to-state decodes (spill churn).
	Decodes int
}

// Store owns every sketch of one cube: per-group mergeable state
// addressed by handle words embedded in table measures. All methods
// are safe for concurrent use.
type Store struct {
	cfg Config

	mu          sync.Mutex
	shards      map[uint32]*shard
	nextScratch uint32
	lru         *list.List // *entry values: sealed, decoded, evictable
	resident    int
	peak        int
	sealed      int
	entries     int
	decodes     int
}

// NewStore returns an empty store for the given configuration (zero
// fields take package defaults).
func NewStore(cfg Config) *Store {
	return &Store{
		cfg:         cfg.WithDefaults(),
		shards:      make(map[uint32]*shard),
		nextScratch: scratchShardBase,
		lru:         list.New(),
	}
}

// Config returns the store's effective configuration.
func (s *Store) Config() Config { return s.cfg }

// Stats returns a snapshot of the store's footprint.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:      s.entries,
		SealedBytes:  s.sealed,
		Resident:     s.resident,
		PeakResident: s.peak,
		Decodes:      s.decodes,
	}
}

// Rank returns the combiner for build/ingest rank r. Handles minted by
// rank combiners are permanent (until the store is discarded). A nil
// store (an algebraic cube) has the nil combiner.
func (s *Store) Rank(r int) *Combiner {
	if s == nil {
		return nil
	}
	if r < 0 || r >= scratchShardBase {
		panic(fmt.Sprintf("sketch: rank %d out of range", r))
	}
	return &Combiner{s: s, shard: uint32(r)}
}

// Scratch returns a combiner over a fresh scratch shard for a
// query-time merge; release it with ReleaseScratch once every handle
// it minted has been resolved to an estimate.
func (s *Store) Scratch() *Combiner {
	s.mu.Lock()
	defer s.mu.Unlock()
	id := s.nextScratch
	s.nextScratch++
	return &Combiner{s: s, shard: id}
}

// ReleaseScratch drops a scratch combiner's shard and every sketch in
// it. Handles minted by it are invalid afterwards.
func (s *Store) ReleaseScratch(c *Combiner) {
	if c == nil || c.s != s {
		return
	}
	if c.shard < scratchShardBase {
		panic("sketch: releasing a rank shard")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	sh := s.shards[c.shard]
	if sh == nil {
		return
	}
	for _, e := range sh.entries {
		if e == nil {
			continue
		}
		s.entries--
		s.sealed -= len(e.blob)
		if e.dec != nil {
			s.resident -= e.res
		}
		if e.el != nil {
			s.lru.Remove(e.el)
		}
	}
	delete(s.shards, c.shard)
}

// lookup resolves a handle to its entry; the caller holds s.mu.
func (s *Store) lookup(h int64) *entry {
	shardID, idx := decodeHandle(h)
	sh := s.shards[shardID]
	if sh == nil || idx >= len(sh.entries) || sh.entries[idx] == nil {
		panic(fmt.Sprintf("sketch: dangling handle %d (shard %d idx %d)", h, shardID, idx))
	}
	return sh.entries[idx]
}

// newSketch allocates an empty Mergeable per the store's kind.
func (s *Store) newSketch() Mergeable {
	switch s.cfg.Kind {
	case KindDistinct:
		return NewDistinct(s.cfg.ExactThreshold, s.cfg.FMBitmaps)
	case KindQuantile:
		return NewQuantile(s.cfg.MaxBuckets)
	}
	panic(fmt.Sprintf("sketch: unknown kind %d", int(s.cfg.Kind)))
}

// decodeBlob reconstructs sketch state from a sealed blob.
func (s *Store) decodeBlob(blob []byte) (Mergeable, error) {
	switch s.cfg.Kind {
	case KindDistinct:
		return distinctFromBinary(blob, s.cfg.ExactThreshold, s.cfg.FMBitmaps)
	case KindQuantile:
		return quantileFromBinary(blob, s.cfg.MaxBuckets)
	}
	panic(fmt.Sprintf("sketch: unknown kind %d", int(s.cfg.Kind)))
}

// resolved returns the decoded state of a sealed or open entry,
// decoding the blob into the arena if spilled. Caller holds s.mu.
func (s *Store) resolved(e *entry) Mergeable {
	if e.dec != nil {
		if e.el != nil {
			s.lru.MoveToFront(e.el)
		}
		return e.dec
	}
	dec, err := s.decodeBlob(e.blob)
	if err != nil {
		panic(fmt.Sprintf("sketch: corrupt sealed sketch: %v", err))
	}
	e.dec = dec
	e.res = dec.Bytes()
	s.decodes++
	s.charge(e.res)
	e.el = s.lru.PushFront(e)
	s.evict()
	return dec
}

// charge adds resident bytes and tracks the high-water mark; caller
// holds s.mu.
func (s *Store) charge(n int) {
	s.resident += n
	if s.resident > s.peak {
		s.peak = s.resident
	}
}

// evict spills sealed decoded entries past the arena budget, oldest
// first. Open accumulators are never in the LRU and never spilled.
func (s *Store) evict() {
	for s.resident > s.cfg.ArenaBudget {
		back := s.lru.Back()
		if back == nil {
			return
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		e.el = nil
		e.dec = nil
		s.resident -= e.res
		e.res = 0
	}
}

// absorb folds measure word m into open accumulator dec: raw words
// insert, handles merge. Caller holds s.mu.
func (s *Store) absorb(dec Mergeable, m int64) {
	if m >= 0 {
		dec.Insert(m)
		return
	}
	dec.Merge(s.resolved(s.lookup(m)))
}

// Estimate serves measure word m: raw distinct words are singletons
// (estimate 1), raw quantile words are their own value at any q, and
// handles are served from their sketch.
func (s *Store) Estimate(m int64, q float64) float64 {
	if m >= 0 {
		if s.cfg.Kind == KindDistinct {
			return 1
		}
		return float64(m)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.resolved(s.lookup(m)).Estimate(q)
}

// EstimateMeasure is Estimate rounded back into a measure word, for
// query results that replace handles with served estimates.
func (s *Store) EstimateMeasure(m int64, q float64) int64 {
	return int64(math.Round(s.Estimate(m, q)))
}

// StateBytes reports the sketch payload bytes behind measure word m
// (0 for raw words): the honest extra volume the word costs on a wire
// or disk beyond the 8-byte measure itself.
func (s *Store) StateBytes(m int64) int {
	if m >= 0 {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.lookup(m)
	if e.open {
		return e.dec.Bytes()
	}
	return len(e.blob)
}

// Export returns the sealed blobs behind the given handles, for
// persistence. Panics on raw words, dangling handles, or open state —
// exporting unsealed state is a seal-on-emit violation.
func (s *Store) Export(handles []int64) [][]byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	blobs := make([][]byte, len(handles))
	for i, h := range handles {
		if h >= 0 {
			panic(fmt.Sprintf("sketch: exporting raw measure word %d", h))
		}
		e := s.lookup(h)
		if e.open {
			panic(fmt.Sprintf("sketch: exporting open sketch %d", h))
		}
		blobs[i] = e.blob
	}
	return blobs
}

// Import installs sealed blobs at the exact handle slots they were
// exported from, so persisted tables referencing those handles stay
// valid verbatim. Re-importing an identical blob at an occupied slot
// is a no-op; a conflicting blob is an error.
func (s *Store) Import(handles []int64, blobs [][]byte) error {
	if len(handles) != len(blobs) {
		return fmt.Errorf("sketch: import of %d handles with %d blobs", len(handles), len(blobs))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, h := range handles {
		if h >= 0 {
			return fmt.Errorf("sketch: import of raw measure word %d", h)
		}
		// Validate before installing.
		if _, err := s.decodeBlob(blobs[i]); err != nil {
			return fmt.Errorf("sketch: import handle %d: %w", h, err)
		}
		shardID, idx := decodeHandle(h)
		sh := s.shards[shardID]
		if sh == nil {
			sh = &shard{}
			s.shards[shardID] = sh
		}
		if shardID >= s.nextScratch {
			s.nextScratch = shardID + 1
		}
		for len(sh.entries) <= idx {
			sh.entries = append(sh.entries, nil)
		}
		if e := sh.entries[idx]; e != nil {
			if string(e.blob) != string(blobs[i]) {
				return fmt.Errorf("sketch: import conflicts with live sketch at handle %d", h)
			}
			continue
		}
		blob := append([]byte(nil), blobs[i]...)
		sh.entries[idx] = &entry{blob: blob}
		s.entries++
		s.sealed += len(blob)
	}
	return nil
}

// Combiner is one shard's view of the store, implementing
// record.StateCombiner. Combine may mutate open accumulators it owns
// (handles it minted that are not yet sealed); every other measure
// word is read-only to it.
type Combiner struct {
	s     *Store
	shard uint32
}

// Agg is the aggregate descriptor a processor applies to measures: the
// operator plus, for holistic operators, this combiner. Algebraic
// operators and the nil combiner carry no state.
func (c *Combiner) Agg(op record.AggOp) record.Agg {
	if c == nil || !op.Holistic() {
		return record.Agg{Op: op}
	}
	return record.Agg{Op: op, State: c}
}

// Combine implements record.StateCombiner. If a is an open accumulator
// owned by this combiner's shard it absorbs b in place; otherwise a
// fresh open accumulator absorbing both operands is minted. Because
// run boundaries determine where fresh accumulators start, the minted
// handle sequence — and therefore every handle word in emitted tables
// — is identical across kernel on/off execution paths.
func (c *Combiner) Combine(a, b int64) int64 {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if a < 0 {
		shardID, _ := decodeHandle(a)
		e := s.lookup(a)
		if e.open {
			if shardID != c.shard {
				panic(fmt.Sprintf("sketch: open sketch %d from shard %d crossed into shard %d — seal-on-emit violated", a, shardID, c.shard))
			}
			before := e.res
			s.absorb(e.dec, b)
			e.res = e.dec.Bytes()
			s.charge(e.res - before)
			return a
		}
	}
	dec := s.newSketch()
	s.absorb(dec, a)
	s.absorb(dec, b)
	sh := s.shards[c.shard]
	if sh == nil {
		sh = &shard{}
		s.shards[c.shard] = sh
	}
	idx := len(sh.entries)
	sh.entries = append(sh.entries, &entry{dec: dec, res: dec.Bytes(), open: true})
	s.entries++
	s.charge(dec.Bytes())
	return encodeHandle(c.shard, idx)
}

// Seal implements record.StateCombiner: freeze an open accumulator
// into its canonical blob (identity on raw words and sealed handles).
// The decoded state stays cached in the arena, evictable.
func (c *Combiner) Seal(h int64) int64 {
	if h >= 0 {
		return h
	}
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.lookup(h)
	if !e.open {
		return h
	}
	e.open = false
	e.blob = e.dec.AppendBinary(nil)
	s.sealed += len(e.blob)
	e.el = s.lru.PushFront(e)
	s.evict()
	return h
}

// StateBytes implements record.StateCombiner.
func (c *Combiner) StateBytes(h int64) int { return c.s.StateBytes(h) }
