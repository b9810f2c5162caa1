package rolap

import (
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/queryengine"
	"repro/internal/record"
	"repro/internal/sketch"
)

// savedCube is a snapshot's header: the schema, the dictionaries, and
// what a loaded cube needs to keep serving and ingesting like the
// original — hardware model, iceberg threshold, metrics, per-view
// version counters for cache keys, and facts buffered but not yet
// applied. This is the "pre-computation" deployment the paper
// motivates: build the cube once on the cluster, persist it, and serve
// OLAP queries from the loaded copy.
//
// A snapshot is one gob stream: this header, then NumViews savedView
// sections, so Save and LoadCube hold one view's message at a time.
// Each view is its per-rank columnar compressed slices
// (internal/colstore), placed on their ranks at load with no decode and
// no re-cut; a holistic cube's sketch blobs are the slices' state
// column, so they travel inside them. There is one format; Version exists so a loader can refuse
// anything else (ErrUnsupportedSnapshot).
type savedCube struct {
	Version    int
	Dimensions []Dimension
	Dicts      [][]string
	Op         int
	// State is savedState as JSON: gob sizes a decoded map by the count
	// the stream claims, so the header of an untrusted stream holds none.
	State    []byte
	NumViews int

	Hardware    int
	MinSupport  int64
	PendingDims []uint32
	PendingMeas []int64

	// state and views are what encode writes as State and as the
	// sections after the header message.
	state savedState
	views []savedView
}

// savedState is the part of the header that holds maps.
type savedState struct {
	Metrics      Metrics
	ViewVersions map[lattice.ViewID]uint64
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
const savedCubeVersion = 5

// ErrUnsupportedSnapshot is wrapped by LoadCube's error when the
// stream decodes but is not a format-5 snapshot.
var ErrUnsupportedSnapshot = errors.New("rolap: unsupported snapshot version")

// Save serializes the cube (schema, dictionaries, metrics, every
// materialized view, and any buffered facts) so it can be reloaded
// with LoadCube, queried, and further maintained without rebuilding.
//
// Save is safe to call concurrently with Ingest: the snapshot is
// captured under the ingest lock, so it is a committed batch boundary,
// never a torn mixture of pre- and post-batch views; it is written
// after the lock is released, so a slow w holds up no batch.
func (c *Cube) Save(w io.Writer) error {
	c.ingMu.Lock()
	sc := c.capture(true)
	c.ingMu.Unlock()
	return sc.encode(w)
}

// capture copies what a snapshot needs while the caller holds ingMu:
// the header, the pending buffer and each view's per-rank sealed slice
// references. It decodes nothing. Replica
// bootstraps pass includePending=false: buffered facts reach replicas
// later in a shipped batch and must not be counted twice.
func (c *Cube) capture(includePending bool) *savedCube {
	sc := &savedCube{
		Version:    savedCubeVersion,
		Dimensions: c.in.schema.Dimensions,
		Dicts:      c.in.dicts,
		Op:         int(c.op),
		Hardware:   int(c.opts.Hardware),
		MinSupport: c.opts.MinSupport,
		state:      savedState{Metrics: c.Metrics()},
	}
	// One maintenance section across every view: holding ingMu alone is
	// not enough, because the per-view captures would otherwise
	// interleave with an engine-level slice replacement.
	c.engine.Maintain(func() error {
		t := c.engine.Topology()
		sc.state.ViewVersions = t.Versions()
		if includePending {
			for i := 0; i < c.pending.Len(); i++ {
				sc.PendingDims = append(sc.PendingDims, c.pending.Row(i)...)
				sc.PendingMeas = append(sc.PendingMeas, c.pending.Meas(i))
			}
		}
		for _, v := range t.Views() {
			order, _ := t.Order(v)
			sv := savedView{View: uint32(v), Order: order}
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
			}
			sc.views = append(sc.views, sv)
		}
		return nil
	})
	sc.NumViews = len(sc.views)
	return sc
}

// encode writes the header, then one section per view. It needs no
// lock: the slices it checksums and writes are sealed, hence immutable.
func (sc *savedCube) encode(w io.Writer) error {
	var err error
	if sc.State, err = json.Marshal(sc.state); err != nil {
		return err
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(sc); err != nil {
		return err
	}
	for i := range sc.views {
		sv := &sc.views[i]
		sv.Sums = make([]uint64, len(sv.Slices))
		for k, s := range sv.Slices {
			sv.Sums[k] = s.Checksum()
		}
		if err := enc.Encode(sv); err != nil {
			return err
		}
	}
	return nil
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
// The stream is untrusted: anything but a format-5 snapshot is
// rejected with ErrUnsupportedSnapshot, damaged blocks with an error
// wrapping colstore.ErrCorrupt, and inconsistent metadata or missing
// sections with a plain error — never a panic, never a partial cube.
func LoadCube(r io.Reader) (*Cube, error) {
	dec := gob.NewDecoder(r)
	var sc savedCube
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("rolap: loading cube: %w", err)
	}
	if sc.Version != savedCubeVersion {
		return nil, fmt.Errorf("%w %d (want %d)", ErrUnsupportedSnapshot, sc.Version, savedCubeVersion)
	}
	var st savedState
	if err := json.Unmarshal(sc.State, &st); err != nil {
		return nil, fmt.Errorf("rolap: corrupt snapshot state: %w", err)
	}
	in, err := NewInput(Schema{Dimensions: sc.Dimensions})
	if err != nil {
		return nil, err
	}
	d := len(sc.Dimensions)
	if sc.Dicts != nil && len(sc.Dicts) != d {
		return nil, fmt.Errorf("rolap: corrupt snapshot: %d dictionaries for %d dimensions", len(sc.Dicts), d)
	}
	in.dicts = sc.Dicts

	p := st.Metrics.Processors
	if p < 1 || p > maxProcessors {
		return nil, fmt.Errorf("rolap: saved processor count %d out of range", p)
	}
	m := cluster.New(p, Hardware(sc.Hardware).params())

	c := &Cube{
		in:      in,
		machine: m,
		metrics: st.Metrics,
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
	default:
		return nil, fmt.Errorf("rolap: corrupt snapshot: unknown aggregate %d", sc.Op)
	}
	if len(sc.PendingDims) != len(sc.PendingMeas)*d {
		return nil, fmt.Errorf("rolap: corrupt saved pending buffer")
	}
	for i := range sc.PendingMeas {
		c.pending.Append(sc.PendingDims[i*d:(i+1)*d], sc.PendingMeas[i])
	}

	// Each view section is validated and placed as it is decoded; a
	// stream that ends early is an error, never a partial cube.
	orders := map[lattice.ViewID]lattice.Order{}
	if sc.NumViews < 0 || sc.NumViews > 1<<d {
		return nil, fmt.Errorf("rolap: corrupt snapshot: %d views for d=%d", sc.NumViews, d)
	}
	for k := 0; k < sc.NumViews; k++ {
		var sv savedView
		if err := dec.Decode(&sv); err != nil {
			return nil, fmt.Errorf("rolap: loading view section %d of %d: %w", k+1, sc.NumViews, err)
		}
		v := lattice.ViewID(sv.View)
		order := lattice.Order(sv.Order)
		if _, dup := orders[v]; dup {
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
			if err := checkState(c.op, s); err != nil {
				return nil, fmt.Errorf("rolap: saved view %v block %d: %w", v, i, err)
			}
			if s.D() != len(order) {
				return nil, fmt.Errorf("rolap: corrupt saved view %v: slice has %d columns, order has %d", v, s.D(), len(order))
			}
			m.Proc(r).Disk().PutSlice(core.ViewFile(v), s)
		}
		orders[v] = order
	}

	// Planning row counts are derived from the placed storage (a nil
	// rows map), not tracked separately — one source of truth for slice
	// lengths.
	c.engine = queryengine.New(m, orders, nil, c.op)
	c.engine.RestoreVersions(st.ViewVersions)
	return c, nil
}

// checkState validates a loaded slice's state column: an algebraic
// cube has none, and each blob of a holistic one must decode as a
// sketch of the cube's kind. It reads the blobs in place; the slice
// stays undecoded.
func checkState(op record.AggOp, s *colstore.Slice) error {
	if s.StateEnds == nil {
		return nil
	}
	if !op.Holistic() {
		return fmt.Errorf("%w: sketch state in a %v cube", colstore.ErrCorrupt, op)
	}
	from := uint32(0)
	for row, to := range s.StateEnds {
		if to > from {
			if err := sketch.Check(op, s.State[from:to]); err != nil {
				return fmt.Errorf("%w: row %d: %v", colstore.ErrCorrupt, row, err)
			}
			from = to
		}
	}
	return nil
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
