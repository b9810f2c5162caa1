package rolap

import (
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/lattice"
	"repro/internal/queryengine"
	"repro/internal/record"
	"repro/internal/sketch"
)

// savedCube is the gob-serialized form of a cube: the schema, the
// dictionaries, every materialized view, and what a loaded cube needs
// to keep serving and ingesting like the original — the hardware model
// and iceberg threshold, the per-view version counters for cache keys,
// and any facts buffered but not yet applied at save time. This is the
// "pre-computation" deployment the paper motivates: build the cube
// once on the cluster, persist it, and serve OLAP queries from the
// loaded copy.
//
// Each view is stored as its per-rank columnar compressed slices
// (internal/colstore): loading places each slice on its rank as an
// opaque block handle — no decode, no re-cut — so
// cold-load-to-first-query skips the row materialization entirely.
// There is one format; Version exists so a loader can refuse anything
// else (ErrUnsupportedSnapshot).
type savedCube struct {
	Version    int
	Dimensions []Dimension
	Dicts      [][]string
	Op         int
	Metrics    Metrics
	Views      []savedView

	Hardware     int
	MinSupport   int64
	ViewVersions map[uint32]uint64
	PendingDims  []uint32
	PendingMeas  []int64

	// Holistic sketch section (CountDistinct / Quantile cubes): the
	// store's parameters plus every sealed sketch blob referenced by a
	// saved view measure. The measure words in the saved views are
	// sketch handles and stay valid verbatim because Import reinstalls
	// each blob at the exact slot it was exported from. Sums[i] is
	// Blobs[i]'s FNV-1a checksum, verified at load. Absent (zero) on
	// algebraic cubes.
	SketchKind           int
	SketchFMBitmaps      int
	SketchExactThreshold int
	SketchMaxBuckets     int
	SketchArenaBudget    int
	SketchHandles        []int64
	SketchBlobs          [][]byte
	SketchSums           []uint64
}

type savedView struct {
	View  uint32
	Order []int
	// Slices[i] is the sealed slice of machine rank Ranks[i]; a view
	// with no rows has none. Parallel arrays rather than a
	// rank-indexed slice because gob cannot encode nil pointers inside
	// a slice; only present ranks are stored. Sums[i] is Slices[i]'s
	// payload checksum, verified at load: structural validation alone
	// cannot catch a flipped payload bit.
	Ranks  []int
	Slices []*colstore.Slice
	Sums   []uint64
}

// savedCubeVersion is the only snapshot format written and read.
const savedCubeVersion = 3

// ErrUnsupportedSnapshot is wrapped by LoadCube's error when the
// stream decodes but is not a format-3 snapshot.
var ErrUnsupportedSnapshot = errors.New("rolap: unsupported snapshot version")

// Save serializes the cube (schema, dictionaries, metrics, every
// materialized view, and any buffered facts) so it can be reloaded
// with LoadCube, queried, and further maintained without rebuilding.
//
// Save is safe to call concurrently with Ingest: the pending-buffer
// copy, the version-counter snapshot, and the gather of every view
// slice all happen inside one maintenance critical section, so the
// serialized cube is always a committed batch boundary — never a torn
// mixture of pre-batch and post-batch views.
func (c *Cube) Save(w io.Writer) error {
	c.ingMu.Lock()
	defer c.ingMu.Unlock()
	return c.saveLocked(w, true)
}

// saveLocked is Save's body, for callers that already hold ingMu (the
// replica tier snapshots the leader from inside its commit hook).
// includePending controls whether buffered-but-unapplied facts are
// serialized; replica bootstrap snapshots exclude them, because those
// facts will arrive at the replica later as part of a shipped batch
// and must not be double counted.
func (c *Cube) saveLocked(w io.Writer, includePending bool) error {
	sc := savedCube{
		Version:    savedCubeVersion,
		Dimensions: c.in.schema.Dimensions,
		Dicts:      c.in.dicts,
		Op:         int(c.op),
		Metrics:    c.Metrics(),
		Hardware:   int(c.opts.Hardware),
		MinSupport: c.opts.MinSupport,
	}
	// On a holistic cube every view measure is a sketch handle; collect
	// them (deduplicated, in deterministic order) so the sealed blobs
	// travel with the file.
	handleSet := map[int64]bool{}
	collectHandles := func(rows *record.Table) {
		if c.sketch == nil {
			return
		}
		for i := 0; i < rows.Len(); i++ {
			if m := rows.Meas(i); m < 0 {
				handleSet[m] = true
			}
		}
	}
	snapshot := func() error {
		sc.ViewVersions = map[uint32]uint64{}
		for v, ver := range c.engine.Versions() {
			sc.ViewVersions[uint32(v)] = ver
		}
		if includePending {
			for i := 0; i < c.pending.Len(); i++ {
				sc.PendingDims = append(sc.PendingDims, c.pending.Row(i)...)
				sc.PendingMeas = append(sc.PendingMeas, c.pending.Meas(i))
			}
		}
		for _, v := range c.views {
			sv := savedView{View: uint32(v), Order: c.orders[v]}
			// Gather the sealed per-rank slices as-is — the file carries
			// the compressed block images and their placement.
			name := core.ViewFile(v)
			for r := 0; r < c.machine.P(); r++ {
				disk := c.machine.Proc(r).Disk()
				if !disk.Has(name) || disk.Len(name) == 0 {
					continue
				}
				disk.Seal(name)
				s, _ := disk.GetSlice(name)
				sv.Ranks = append(sv.Ranks, r)
				sv.Slices = append(sv.Slices, s)
				sv.Sums = append(sv.Sums, s.Checksum())
			}
			// The row gather is needed only for the sketch handles of a
			// holistic cube, but runs (and charges its read) on every
			// cube: it also fills each slice's decode cache, which the
			// first scans after a Save hit warm. Known accident — see
			// DESIGN.md §12; it goes with the row decode it hides.
			collectHandles(c.gatherViewRaw(v))
			sc.Views = append(sc.Views, sv)
		}
		return nil
	}
	// One maintenance section across every view: holding ingMu alone is
	// not enough, because the per-view gathers would otherwise
	// interleave with an engine-level slice replacement.
	if err := c.engine.Maintain(snapshot); err != nil {
		return err
	}
	if c.sketch != nil {
		cfg := c.sketch.Config()
		sc.SketchKind = int(cfg.Kind)
		sc.SketchFMBitmaps = cfg.FMBitmaps
		sc.SketchExactThreshold = cfg.ExactThreshold
		sc.SketchMaxBuckets = cfg.MaxBuckets
		sc.SketchArenaBudget = cfg.ArenaBudget
		handles := make([]int64, 0, len(handleSet))
		for h := range handleSet {
			handles = append(handles, h)
		}
		sort.Slice(handles, func(i, j int) bool { return handles[i] < handles[j] })
		sc.SketchHandles = handles
		sc.SketchBlobs = c.sketch.Export(handles)
		sc.SketchSums = make([]uint64, len(handles))
		for i, b := range sc.SketchBlobs {
			sc.SketchSums[i] = blobSum(b)
		}
	}
	return gob.NewEncoder(w).Encode(sc)
}

// blobSum is the FNV-1a checksum persisted alongside each sketch blob:
// structural decode alone cannot catch a flipped payload bit.
func blobSum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// gatherViewRaw reads view v's slices into one table directly off the
// processors' disks, without entering the engine's maintenance section
// (Maintain is not reentrant; saveLocked already holds it).
func (c *Cube) gatherViewRaw(v lattice.ViewID) *record.Table {
	rows := record.New(v.Count(), 0)
	for r := 0; r < c.machine.P(); r++ {
		if t, ok := c.machine.Proc(r).Disk().Get(core.ViewFile(v)); ok {
			rows.AppendTable(t)
		}
	}
	return rows
}

// LoadCube deserializes a cube written by Save and rehydrates the full
// query-side state the original had: every view slice is validated and
// placed on its saved rank of a simulated machine of the saved size
// (so later ingest batches merge exactly like on the original), the
// distributed query engine and its planning row counts are rebuilt,
// view version counters resume where they left off, and buffered facts
// are restored. The result answers View, Aggregate, GroupBy and
// RangeAggregate exactly like the original and (unless it is an
// iceberg cube) accepts Ingest.
//
// The stream is untrusted: anything but a format-3 snapshot is
// rejected with ErrUnsupportedSnapshot, damaged blocks with an error
// wrapping colstore.ErrCorrupt, and inconsistent metadata with a plain
// error — never a panic, never a silently wrong cube.
func LoadCube(r io.Reader) (*Cube, error) {
	var sc savedCube
	if err := gob.NewDecoder(r).Decode(&sc); err != nil {
		return nil, fmt.Errorf("rolap: loading cube: %w", err)
	}
	if sc.Version != savedCubeVersion {
		return nil, fmt.Errorf("%w %d (want %d)", ErrUnsupportedSnapshot, sc.Version, savedCubeVersion)
	}
	in, err := NewInput(Schema{Dimensions: sc.Dimensions})
	if err != nil {
		return nil, err
	}
	in.dicts = sc.Dicts
	d := len(sc.Dimensions)

	p := sc.Metrics.Processors
	if p < 1 || p > maxProcessors {
		return nil, fmt.Errorf("rolap: saved processor count %d out of range", p)
	}
	params := costmodel.Default()
	if Hardware(sc.Hardware) == ModernCluster {
		params = costmodel.Modern()
	}
	m := cluster.New(p, params)

	c := &Cube{
		in:      in,
		machine: m,
		orders:  map[lattice.ViewID]lattice.Order{},
		metrics: sc.Metrics,
		op:      record.AggOp(sc.Op),
		opts: Options{
			Processors: p,
			Hardware:   Hardware(sc.Hardware),
			MinSupport: sc.MinSupport,
		},
		pending: record.New(d, 0),
	}
	switch record.AggOp(sc.Op) {
	case record.OpSum:
		c.opts.Aggregate = Sum
	case record.OpMin:
		c.opts.Aggregate = Min
	case record.OpMax:
		c.opts.Aggregate = Max
	case record.OpDistinct:
		c.opts.Aggregate = CountDistinct
	case record.OpQuantile:
		c.opts.Aggregate = Quantile
	}
	if c.op.Holistic() {
		if len(sc.SketchHandles) != len(sc.SketchBlobs) || len(sc.SketchHandles) != len(sc.SketchSums) {
			return nil, fmt.Errorf("rolap: corrupt sketch section: %d handles, %d blobs, %d checksums",
				len(sc.SketchHandles), len(sc.SketchBlobs), len(sc.SketchSums))
		}
		for i, b := range sc.SketchBlobs {
			if blobSum(b) != sc.SketchSums[i] {
				return nil, fmt.Errorf("rolap: sketch blob for handle %d: checksum mismatch", sc.SketchHandles[i])
			}
		}
		st := sketch.NewStore(sketch.Config{
			Kind:           sketch.Kind(sc.SketchKind),
			FMBitmaps:      sc.SketchFMBitmaps,
			ExactThreshold: sc.SketchExactThreshold,
			MaxBuckets:     sc.SketchMaxBuckets,
			ArenaBudget:    sc.SketchArenaBudget,
		})
		if err := st.Import(sc.SketchHandles, sc.SketchBlobs); err != nil {
			return nil, fmt.Errorf("rolap: %w", err)
		}
		c.sketch = st
		c.opts.SketchExactThreshold = sc.SketchExactThreshold
		c.opts.SketchMaxBuckets = sc.SketchMaxBuckets
		c.opts.SketchArenaBudget = sc.SketchArenaBudget
	}

	for _, sv := range sc.Views {
		v := lattice.ViewID(sv.View)
		order := lattice.Order(sv.Order)
		if _, dup := c.orders[v]; dup {
			return nil, fmt.Errorf("rolap: corrupt snapshot: view %v saved twice", v)
		}
		if !v.SubsetOf(lattice.Full(d)) || !isPermutationOf(order, v) {
			return nil, fmt.Errorf("rolap: corrupt snapshot: order %v is not a permutation of the dimensions of view %v (d=%d)", sv.Order, v, d)
		}
		if len(sv.Ranks) != len(sv.Slices) || len(sv.Sums) != len(sv.Slices) {
			return nil, fmt.Errorf("rolap: saved view %v: %w: %d ranks, %d slices, %d checksums",
				v, colstore.ErrCorrupt, len(sv.Ranks), len(sv.Slices), len(sv.Sums))
		}
		// Validate each block and place it on its saved rank as an opaque
		// compressed handle — no decode.
		for i, s := range sv.Slices {
			r := sv.Ranks[i]
			if r < 0 || r >= p || s == nil || m.Proc(r).Disk().Has(core.ViewFile(v)) {
				return nil, fmt.Errorf("rolap: corrupt saved view %v: bad rank %d", v, r)
			}
			if err := s.Validate(); err != nil {
				return nil, fmt.Errorf("rolap: saved view %v: %w", v, err)
			}
			if s.Checksum() != sv.Sums[i] {
				return nil, fmt.Errorf("rolap: saved view %v block %d: %w: checksum mismatch", v, i, colstore.ErrCorrupt)
			}
			if s.D() != len(order) {
				return nil, fmt.Errorf("rolap: corrupt saved view %v: slice has %d columns, order has %d", v, s.D(), len(order))
			}
			m.Proc(r).Disk().PutSlice(core.ViewFile(v), s)
		}
		c.views = append(c.views, v)
		c.orders[v] = order
	}
	if len(sc.PendingDims) != len(sc.PendingMeas)*d {
		return nil, fmt.Errorf("rolap: corrupt saved pending buffer")
	}
	for i := range sc.PendingMeas {
		c.pending.Append(sc.PendingDims[i*d:(i+1)*d], sc.PendingMeas[i])
	}

	// Planning row counts are derived from the placed storage, not
	// tracked separately — one source of truth for slice lengths.
	rows := map[lattice.ViewID]int64{}
	for _, v := range c.views {
		rows[v] = core.ViewGlobalRows(m, v)
	}

	c.engine = queryengine.New(m, c.orders, rows, c.op)
	if c.sketch != nil {
		c.engine.SetSketch(c.sketch)
	}
	if len(sc.ViewVersions) > 0 {
		vers := make(map[lattice.ViewID]uint64, len(sc.ViewVersions))
		for v, ver := range sc.ViewVersions {
			vers[lattice.ViewID(v)] = ver
		}
		c.engine.RestoreVersions(vers)
	}
	return c, nil
}

// isPermutationOf reports whether o lists each dimension of v exactly
// once and nothing else.
func isPermutationOf(o lattice.Order, v lattice.ViewID) bool {
	var seen lattice.ViewID
	for _, i := range o {
		if !v.Has(i) || seen.Has(i) {
			return false
		}
		seen = seen.Add(i)
	}
	return seen == v
}
