package rolap

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/colstore"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/record"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	in, oracle := loadRandom(t, 1200, 31)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Processors() != 3 {
		t.Fatalf("Processors = %d", loaded.Processors())
	}
	if len(loaded.Views()) != len(cube.Views()) {
		t.Fatalf("views %d != %d", len(loaded.Views()), len(cube.Views()))
	}
	// Queries agree with the original and the oracle.
	queries := []struct {
		dims []string
		key  []uint32
	}{
		{[]string{"store"}, []uint32{5}},
		{[]string{"month", "channel"}, []uint32{2, 1}},
		{nil, nil},
	}
	for _, q := range queries {
		a, err1 := cube.Aggregate(q.dims, q.key)
		b, err2 := loaded.Aggregate(q.dims, q.key)
		if err1 != nil || err2 != nil || a != b || a != oracle(q.dims, q.key) {
			t.Fatalf("query %v: orig %d (%v), loaded %d (%v)", q.dims, a, err1, b, err2)
		}
	}
	// GroupBy works on loaded cubes too.
	vw, err := loaded.GroupBy([]string{"product"}, map[string]uint32{"channel": 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < vw.Len(); i++ {
		key, m := vw.Row(i)
		if want := oracle([]string{"product", "channel"}, []uint32{key[0], 0}); m != want {
			t.Fatalf("loaded GroupBy product %d = %d, want %d", key[0], m, want)
		}
	}
	// Metrics survive.
	if loaded.Metrics().OutputRows != cube.Metrics().OutputRows {
		t.Fatal("metrics lost")
	}
}

func TestSaveLoadWithDictionaries(t *testing.T) {
	in, err := LoadCSV(strings.NewReader(salesCSV), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Dictionaries travel with the snapshot: query by decoded name via
	// the loaded cube's input.
	vw, err := loaded.View([]string{"region"})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for i := 0; i < vw.Len(); i++ {
		key, m := vw.Row(i)
		if loadedName := loadedDecode(loaded, "region", key[0]); loadedName == "east" && m == 330 {
			found = true
		}
	}
	if !found {
		t.Fatal("east=330 not found after reload")
	}
}

// loadedDecode decodes through the loaded cube's internal input.
func loadedDecode(c *Cube, dim string, code uint32) string {
	return c.in.Decode(dim, code)
}

// saveLoad round-trips a cube through the gob snapshot.
func saveLoad(t *testing.T, c *Cube) *Cube {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCube(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

// TestSaveLoadRehydratesQueryState is the regression test for the
// loader leaving query-side state unhydrated: a loaded cube must have
// a live distributed engine, usable prefix indexes, correct smallest-superset planning inputs, and
// serving must work — all without rebuilding.
func TestSaveLoadRehydratesQueryState(t *testing.T) {
	in, oracle := loadRandom(t, 1500, 37)
	cube, err := Build(in, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	loaded := saveLoad(t, cube)

	if loaded.machine == nil || loaded.engine == nil {
		t.Fatal("loaded cube has no rehydrated machine/engine")
	}
	if loaded.machine.P() != 4 {
		t.Fatalf("rehydrated machine has %d procs, want 4", loaded.machine.P())
	}
	// Every rank concatenation reproduces the original view, and the
	// planning row counts drive the same source-view choices.
	checkCubesEqual(t, loaded, cube)
	for _, dims := range [][]string{{"store"}, {"month", "channel"}, {"product", "store"}} {
		want, err := cube.engine.Topology().PickSource(mustView(t, cube, dims))
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.engine.Topology().PickSource(mustView(t, loaded, dims))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("planner picks %v on loaded cube, %v on original", got, want)
		}
	}

	// A server over the loaded cube answers from the prefix index.
	s, err := loaded.NewServer(ServerOptions{})
	if err != nil {
		t.Fatalf("loaded cube cannot serve: %v", err)
	}
	ctx := context.Background()
	got, qm, err := s.Aggregate(ctx, []string{"store"}, []uint32{5})
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle([]string{"store"}, []uint32{5}); got != want {
		t.Fatalf("served aggregate %d, oracle %d", got, want)
	}
	if !qm.IndexUsed {
		t.Fatalf("prefix index not rebuilt on loaded cube: %+v", qm)
	}
}

func mustView(t *testing.T, c *Cube, dims []string) lattice.ViewID {
	t.Helper()
	v, err := c.in.viewOf(dims)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestSaveLoadThenIngest checks the loader's root-aligned scatter: a
// batch ingested into a loaded cube must land exactly where a scratch
// rebuild on all the facts does.
func TestSaveLoadThenIngest(t *testing.T) {
	rows, meas := randomFacts(900, 97)
	base := 700
	cube := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 3})
	loaded := saveLoad(t, cube)

	im, err := loaded.Ingest(rows[base:], meas[base:])
	if err != nil {
		t.Fatal(err)
	}
	if im.Rows != int64(len(rows)-base) || im.DeltaMergeSeconds <= 0 {
		t.Fatalf("batch metrics implausible: %+v", im)
	}
	fresh := buildFromFacts(t, rows, meas, Options{Processors: 3})
	checkCubesEqual(t, loaded, fresh)
	if got, want := loaded.Metrics().OutputRows, fresh.Metrics().OutputRows; got != want {
		t.Fatalf("OutputRows %d after load+ingest, fresh build %d", got, want)
	}
	// Ingesting into the original and into its loaded copy agree too.
	if _, err := cube.Ingest(rows[base:], meas[base:]); err != nil {
		t.Fatal(err)
	}
	checkCubesEqual(t, loaded, cube)
}

// TestSaveLoadPendingAndVersions: buffered facts and view version
// counters survive the round trip.
func TestSaveLoadPendingAndVersions(t *testing.T) {
	rows, meas := randomFacts(800, 113)
	base := 600
	cube := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 2})

	// One applied batch bumps versions; a few buffered rows stay pending.
	if _, err := cube.Ingest(rows[base:base+100], meas[base:base+100]); err != nil {
		t.Fatal(err)
	}
	g, err := cube.NewIngester(IngesterOptions{MaxRows: 1000})
	if err != nil {
		t.Fatal(err)
	}
	for i := base + 100; i < len(rows); i++ {
		if _, _, err := g.Add(rows[i], meas[i]); err != nil {
			t.Fatal(err)
		}
	}
	loaded := saveLoad(t, cube)

	if got, want := loaded.Pending(), cube.Pending(); got != want || got != len(rows)-base-100 {
		t.Fatalf("pending %d after load, want %d", got, want)
	}
	origVers := cube.engine.Topology().Versions()
	loadVers := loaded.engine.Topology().Versions()
	for v, ver := range origVers {
		if ver > 0 && loadVers[v] != ver {
			t.Fatalf("view %v version %d after load, want %d", v, loadVers[v], ver)
		}
	}
	// Flushing the restored buffer completes the stream identically to
	// a scratch rebuild on everything.
	if _, err := loaded.Flush(); err != nil {
		t.Fatal(err)
	}
	fresh := buildFromFacts(t, rows, meas, Options{Processors: 2})
	checkCubesEqual(t, loaded, fresh)
}

// TestSaveDuringIngestNotTorn: Save racing a concurrent Ingest must
// serialize at a committed batch boundary. Every snapshot taken while
// batches land must reload to a cube in which all views agree on the
// grand total, and that total is one of the committed prefix totals —
// never a torn mixture of pre- and post-batch slices.
func TestSaveDuringIngestNotTorn(t *testing.T) {
	rows, meas := randomFacts(700, 311)
	base := 300
	cube := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 2})

	// Totals at every committed boundary.
	allowed := map[int64]bool{}
	var total int64
	for _, m := range meas[:base] {
		total += m
	}
	allowed[total] = true
	const batch = 50
	for lo := base; lo < len(rows); lo += batch {
		for _, m := range meas[lo : lo+batch] {
			total += m
		}
		allowed[total] = true
	}

	done := make(chan error, 1)
	go func() {
		for lo := base; lo < len(rows); lo += batch {
			if _, err := cube.Ingest(rows[lo:lo+batch], meas[lo:lo+batch]); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()

	var snaps [][]byte
	ingesting := true
	for ingesting {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			ingesting = false
		default:
		}
		var buf bytes.Buffer
		if err := cube.Save(&buf); err != nil {
			t.Fatal(err)
		}
		snaps = append(snaps, buf.Bytes())
	}

	for k, snap := range snaps {
		loaded, err := LoadCube(bytes.NewReader(snap))
		if err != nil {
			t.Fatalf("snapshot %d: %v", k, err)
		}
		grand, err := loaded.Aggregate(nil, nil)
		if err != nil {
			t.Fatalf("snapshot %d: %v", k, err)
		}
		if !allowed[grand] {
			t.Fatalf("snapshot %d: grand total %d is not any committed boundary", k, grand)
		}
		// Every view of a Sum cube re-aggregates to the same grand
		// total; a torn save (some views pre-batch, some post-batch)
		// would disagree.
		for _, dims := range loaded.Views() {
			vw, err := loaded.View(dims)
			if err != nil {
				t.Fatalf("snapshot %d view %v: %v", k, dims, err)
			}
			var sum int64
			for i := 0; i < vw.Len(); i++ {
				_, m := vw.Row(i)
				sum += m
			}
			if sum != grand {
				t.Fatalf("snapshot %d: view %v sums to %d, grand total %d — torn save", k, dims, sum, grand)
			}
		}
	}
	// The last snapshot (taken after ingest finished) reloads to the
	// complete stream: identical to a scratch rebuild on all the facts.
	loaded, err := LoadCube(bytes.NewReader(snaps[len(snaps)-1]))
	if err != nil {
		t.Fatal(err)
	}
	fresh := buildFromFacts(t, rows, meas, Options{Processors: 2})
	checkCubesEqual(t, loaded, fresh)
}

// legacyCube / legacyView are the wire shape of snapshot formats 1 and
// 2 (flat row arrays per view), and format3Cube that of format 3 (the
// sealed slices inline, the whole cube one message), kept here only to
// hand-encode streams the loader must refuse.
type legacyView struct {
	View  uint32
	Order []int
	Dims  []uint32
	Meas  []int64
}

type legacyCube struct {
	Version      int
	Dimensions   []Dimension
	Dicts        [][]string
	Op           int
	Metrics      Metrics
	Views        []legacyView
	Hardware     int
	MinSupport   int64
	ViewVersions map[uint32]uint64
}

type format3Cube struct {
	Version    int
	Dimensions []Dimension
	Op         int
	Metrics    Metrics
	Views      []savedView
	Hardware   int
}

// decodeSnapshot splits a snapshot into its header (State decoded into
// sc.state) and its view sections (in sc.views), validating neither.
func decodeSnapshot(t testing.TB, snap []byte) *savedCube {
	t.Helper()
	dec := gob.NewDecoder(bytes.NewReader(snap))
	sc := &savedCube{}
	if err := dec.Decode(sc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sc.State, &sc.state); err != nil {
		t.Fatal(err)
	}
	sc.views = make([]savedView, sc.NumViews)
	for i := range sc.views {
		if err := dec.Decode(&sc.views[i]); err != nil {
			t.Fatal(err)
		}
	}
	return sc
}

// encodeSnapshot writes sc's header and sections verbatim — NumViews and
// checksums as they stand, so a damaged snapshot stays damaged — and
// returns the stream with the offset at which each message ends.
func encodeSnapshot(t testing.TB, sc *savedCube) (stream []byte, ends []int) {
	t.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(sc); err != nil {
		t.Fatal(err)
	}
	ends = append(ends, buf.Len())
	for i := range sc.views {
		if err := enc.Encode(&sc.views[i]); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, buf.Len())
	}
	return buf.Bytes(), ends
}

// untrustedCase is a stream LoadCube must refuse: with an error
// wrapping is, or any error when is is nil.
type untrustedCase struct {
	name   string
	stream []byte
	is     error
}

// untrustedSnapshots returns a valid snapshot of a small cube and every
// way the tests know for a stream to lie to the loader.
func untrustedSnapshots(t testing.TB) (good []byte, cases []untrustedCase) {
	in, _ := loadRandom(t, 90, 131)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good = buf.Bytes()
	encode := func(v any) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	// legacy hand-encodes the cube in the row-array wire form.
	legacy := func(version int) []byte {
		lc := legacyCube{
			Version:    version,
			Dimensions: cube.in.schema.Dimensions,
			Op:         int(cube.op),
			Metrics:    cube.Metrics(),
		}
		if version >= 2 {
			lc.ViewVersions = map[uint32]uint64{0: 1}
		}
		topo := cube.engine.Topology()
		for _, v := range topo.Views() {
			rows := cube.gatherViewRaw(v)
			order, _ := topo.Order(v)
			lv := legacyView{View: uint32(v), Order: order}
			for i := 0; i < rows.Len(); i++ {
				lv.Dims = append(lv.Dims, rows.Row(i)...)
				lv.Meas = append(lv.Meas, rows.Meas(i))
			}
			lc.Views = append(lc.Views, lv)
		}
		return encode(lc)
	}
	// format3 puts the sections back inside the header, as format 3 did.
	format3 := func() []byte {
		sc := decodeSnapshot(t, good)
		return encode(format3Cube{Version: 3, Dimensions: sc.Dimensions, Op: sc.Op,
			Metrics: sc.state.Metrics, Views: sc.views, Hardware: sc.Hardware})
	}
	// damaged re-encodes the good snapshot after one mutation.
	damaged := func(damage func(sc *savedCube)) []byte {
		t.Helper()
		sc := decodeSnapshot(t, good)
		damage(sc)
		stream, _ := encodeSnapshot(t, sc)
		return stream
	}
	// setProcessors rewrites the machine size recorded in the state.
	setProcessors := func(sc *savedCube, p int) {
		sc.state.Metrics.Processors = p
		var err error
		if sc.State, err = json.Marshal(sc.state); err != nil {
			t.Fatal(err)
		}
	}
	// widest returns the saved view with the most dimensions.
	widest := func(sc *savedCube) *savedView {
		best := &sc.views[0]
		for i := range sc.views {
			if len(sc.views[i].Order) > len(best.Order) {
				best = &sc.views[i]
			}
		}
		return best
	}

	return good, []untrustedCase{
		{"not a gob", []byte("not a gob"), nil},
		{"version 1", legacy(1), ErrUnsupportedSnapshot},
		{"version 2", legacy(2), ErrUnsupportedSnapshot},
		{"version 3: one message", format3(), ErrUnsupportedSnapshot},
		{"future version", encode(savedCube{Version: 99}), ErrUnsupportedSnapshot},
		{"checksums stripped", damaged(func(sc *savedCube) {
			for i := range sc.views {
				sc.views[i].Sums = nil
			}
		}), colstore.ErrCorrupt},
		{"checksums short", damaged(func(sc *savedCube) {
			sv := widest(sc)
			sv.Sums = sv.Sums[:len(sv.Sums)-1]
		}), colstore.ErrCorrupt},
		{"p = 1<<30", damaged(func(sc *savedCube) { setProcessors(sc, 1<<30) }), nil},
		{"p = 0", damaged(func(sc *savedCube) { setProcessors(sc, 0) }), nil},
		{"state not JSON", damaged(func(sc *savedCube) { sc.State = sc.State[:len(sc.State)-1] }), nil},
		{"dictionaries for too few dimensions", damaged(func(sc *savedCube) { sc.Dicts = [][]string{{"a"}} }), nil},
		{"unknown aggregate", damaged(func(sc *savedCube) { sc.Op = 99 }), nil},
		{"order names a dimension >= d", damaged(func(sc *savedCube) {
			sv := widest(sc)
			sv.Order = append([]int(nil), sv.Order...)
			sv.Order[0] = len(sc.Dimensions)
		}), nil},
		{"order repeats a dimension", damaged(func(sc *savedCube) {
			sv := widest(sc)
			sv.Order = append([]int(nil), sv.Order...)
			sv.Order[1] = sv.Order[0]
		}), nil},
		{"view outside the lattice", damaged(func(sc *savedCube) {
			sv := widest(sc)
			sv.View = 1 << uint(len(sc.Dimensions))
		}), nil},
		{"view saved twice", damaged(func(sc *savedCube) {
			sc.views = append(sc.views, sc.views[0])
			sc.NumViews++
		}), nil},
		{"rank placed twice", damaged(func(sc *savedCube) {
			sv := widest(sc)
			sv.Ranks = append([]int(nil), sv.Ranks...)
			sv.Ranks[1] = sv.Ranks[0]
		}), nil},
		{"header promises a section the stream lacks", damaged(func(sc *savedCube) { sc.NumViews++ }), nil},
		{"negative view count", damaged(func(sc *savedCube) { sc.NumViews = -1 }), nil},
		{"more views than the lattice has", damaged(func(sc *savedCube) { sc.NumViews = 1<<len(sc.Dimensions) + 1 }), nil},
	}
}

// TestLoadCubeRejectsUntrustedSnapshots: every way a stream can lie to
// the one remaining loader returns an error — the right typed one
// where there is one — and never panics or yields a cube.
func TestLoadCubeRejectsUntrustedSnapshots(t *testing.T) {
	_, cases := untrustedSnapshots(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("LoadCube panicked: %v", r)
				}
			}()
			c, err := LoadCube(bytes.NewReader(tc.stream))
			if err == nil || c != nil {
				t.Fatalf("accepted (cube %v, err %v)", c != nil, err)
			}
			if tc.is != nil && !errors.Is(err, tc.is) {
				t.Fatalf("err = %v, want one wrapping %v", err, tc.is)
			}
		})
	}
}

// FuzzLoadCube: no byte string panics LoadCube, it returns a cube or an
// error and never both, and a cube it accepts saves and loads again.
// The seed corpus (a valid snapshot, a holistic one, and every
// untrusted case) runs in plain go test; `make fuzz` explores beyond it.
func FuzzLoadCube(f *testing.F) {
	good, cases := untrustedSnapshots(f)
	f.Add(good)
	for _, tc := range cases {
		f.Add(tc.stream)
	}
	rows, meas := holisticFacts(120, 7)
	var holistic bytes.Buffer
	if err := buildHolisticCube(f, rows, meas, Quantile).Save(&holistic); err != nil {
		f.Fatal(err)
	}
	f.Add(holistic.Bytes())

	f.Fuzz(func(t *testing.T, stream []byte) {
		c, err := LoadCube(bytes.NewReader(stream))
		if (c == nil) == (err == nil) {
			t.Fatalf("LoadCube returned cube %v and error %v", c != nil, err)
		}
		if c == nil {
			return
		}
		var again bytes.Buffer
		if err := c.Save(&again); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCube(&again); err != nil {
			t.Fatalf("accepted snapshot does not round-trip: %v", err)
		}
	})
}

func mustAggregate(t *testing.T, c *Cube, dims []string, key []uint32) int64 {
	t.Helper()
	got, err := c.Aggregate(dims, key)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSaveLoadColumnarMatchesRowOracle: a snapshot is the format-5
// columnar image — smaller than the cube's row-format size — and
// reloads to byte-identical views whose answers match the input-level
// oracle.
func TestSaveLoadColumnarMatchesRowOracle(t *testing.T) {
	in, oracle := loadRandom(t, 1100, 67)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := cube.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if sc := decodeSnapshot(t, snap.Bytes()); sc.Version != 5 || sc.NumViews != len(cube.Views()) {
		t.Fatalf("save wrote version %d with %d view sections, want 5 with %d", sc.Version, sc.NumViews, len(cube.Views()))
	}
	var rowBytes int64
	for _, dims := range cube.Views() {
		vw, err := cube.View(dims)
		if err != nil {
			t.Fatal(err)
		}
		rowBytes += int64(vw.Len() * record.RowBytes(len(dims)))
	}
	if int64(snap.Len()) >= rowBytes {
		t.Fatalf("snapshot (%d bytes) not smaller than the cube's rows x RowBytes (%d bytes)", snap.Len(), rowBytes)
	}
	loaded, err := LoadCube(&snap)
	if err != nil {
		t.Fatal(err)
	}
	checkCubesEqual(t, loaded, cube)
	for _, q := range []struct {
		dims []string
		key  []uint32
	}{{[]string{"month"}, []uint32{4}}, {nil, nil}} {
		if got := mustAggregate(t, loaded, q.dims, q.key); got != oracle(q.dims, q.key) {
			t.Fatalf("query %v: loaded %d, oracle %d", q.dims, got, oracle(q.dims, q.key))
		}
	}
}

// TestLoadCubeCorruptColumnarBlock: a flipped payload bit and a
// structurally damaged column must both surface as errors wrapping
// colstore.ErrCorrupt — never a panic, never a silently wrong cube.
func TestLoadCubeCorruptColumnarBlock(t *testing.T) {
	in, _ := loadRandom(t, 800, 71)
	cube, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	corrupt := func(t *testing.T, damage func(sc *savedCube) bool) error {
		t.Helper()
		sc := decodeSnapshot(t, buf.Bytes())
		if !damage(sc) {
			t.Fatal("no columnar block to damage")
		}
		bad, _ := encodeSnapshot(t, sc)
		_, err := LoadCube(bytes.NewReader(bad))
		return err
	}

	err = corrupt(t, func(sc *savedCube) bool {
		for i := range sc.views {
			for _, s := range sc.views[i].Slices {
				if s.Corrupt(0xdeadbeef) {
					return true
				}
			}
		}
		return false
	})
	if !errors.Is(err, colstore.ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want colstore.ErrCorrupt", err)
	}

	err = corrupt(t, func(sc *savedCube) bool {
		for i := range sc.views {
			for _, s := range sc.views[i].Slices {
				for j := range s.Cols {
					if len(s.Cols[j].Words) > 0 {
						s.Cols[j].Words = s.Cols[j].Words[:len(s.Cols[j].Words)-1]
						return true
					}
				}
			}
		}
		return false
	})
	if !errors.Is(err, colstore.ErrCorrupt) {
		t.Fatalf("truncated column: err = %v, want colstore.ErrCorrupt", err)
	}
}

// TestLoadCubeTruncatedStream: cutting the stream anywhere — inside a
// message, or exactly at a section boundary, where every message before
// the cut is whole — must produce an error, not a panic or a partial
// cube.
func TestLoadCubeTruncatedStream(t *testing.T) {
	in, _ := loadRandom(t, 800, 73)
	cube, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cube.Save(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	cuts := []int{0, 1, len(b) / 4, len(b) / 2, 3 * len(b) / 4, len(b) - 1}
	for _, k := range cuts {
		if _, err := LoadCube(bytes.NewReader(b[:k])); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", k, len(b))
		}
	}
	stream, ends := encodeSnapshot(t, decodeSnapshot(t, b))
	if len(ends) != len(cube.Views())+1 {
		t.Fatalf("%d messages, want a header and %d view sections", len(ends), len(cube.Views()))
	}
	for i, k := range ends[:len(ends)-1] {
		if c, err := LoadCube(bytes.NewReader(stream[:k])); err == nil || c != nil {
			t.Fatalf("stream cut after message %d (%d of %d bytes) accepted", i, k, len(stream))
		}
	}
	if _, err := LoadCube(bytes.NewReader(stream)); err != nil {
		t.Fatalf("whole re-encoded stream: %v", err)
	}
}

// TestSaveHolisticCubeWithoutRows: a holistic cube's sketch blobs are
// the saved slices' state column — after a build and an ingest batch,
// every view's saved blobs are the live slices' byte for byte and add up
// to the cube's SketchBytes — and Save leaves every slice's decode
// cache empty.
func TestSaveHolisticCubeWithoutRows(t *testing.T) {
	for name, agg := range map[string]Aggregate{"count-distinct": CountDistinct, "quantile": Quantile} {
		rows, meas := holisticFacts(700, 19)
		cube := buildHolisticCube(t, rows, meas, agg)
		brows, bmeas := holisticFacts(150, 23)
		if _, err := cube.Ingest(brows, bmeas); err != nil {
			t.Fatal(err)
		}
		if got := cube.DecodedBytes(); got != 0 {
			t.Fatalf("%s: %d decoded bytes before Save", name, got)
		}
		var snap bytes.Buffer
		if err := cube.Save(&snap); err != nil {
			t.Fatal(err)
		}
		if got := cube.DecodedBytes(); got != 0 {
			t.Fatalf("%s: Save left %d bytes in decode caches", name, got)
		}
		sc := decodeSnapshot(t, snap.Bytes())
		var saved int64
		for _, sv := range sc.views {
			for i, s := range sv.Slices {
				live, _ := cube.machine.Proc(sv.Ranks[i]).Disk().GetSlice(core.ViewFile(lattice.ViewID(sv.View)))
				if !bytes.Equal(s.State, live.State) || !reflect.DeepEqual(s.StateEnds, live.StateEnds) {
					t.Fatalf("%s: view %v rank %d: saved blobs differ from the live slice's", name, sv.View, sv.Ranks[i])
				}
				saved += int64(s.StateBytes())
			}
		}
		if want := cube.Metrics().SketchBytes; saved == 0 || saved != want {
			t.Fatalf("%s: snapshot holds %d sketch bytes, the cube %d", name, saved, want)
		}
	}
}

// blockingWriter is an io.Writer whose every Write waits until the test
// closes release; started is closed by the first Write.
type blockingWriter struct {
	started, release chan struct{}
	once             sync.Once
	buf              bytes.Buffer
}

func (w *blockingWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	<-w.release
	return w.buf.Write(p)
}

// TestSaveBlockedWriterDoesNotBlockIngest: Save captures the cube under
// the ingest lock and writes after releasing it, so while Save sits in
// a Write that does not return, an Ingest + Flush on the same cube
// completes — and the bytes Save writes load to the pre-batch cube,
// views and version vector both.
func TestSaveBlockedWriterDoesNotBlockIngest(t *testing.T) {
	rows, meas := randomFacts(600, 211)
	base := 450
	cube := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 3})
	pre := buildFromFacts(t, rows[:base], meas[:base], Options{Processors: 3})
	preVers := cube.engine.Topology().Versions()

	w := &blockingWriter{started: make(chan struct{}), release: make(chan struct{})}
	saved := make(chan error, 1)
	go func() { saved <- cube.Save(w) }()
	<-w.started

	ingested := make(chan error, 1)
	go func() {
		_, err := cube.Ingest(rows[base:], meas[base:])
		if err == nil {
			_, err = cube.Flush()
		}
		ingested <- err
	}()
	select {
	case err := <-ingested:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		close(w.release)
		t.Fatal("Ingest + Flush did not complete while Save was blocked in Write")
	}
	close(w.release)
	if err := <-saved; err != nil {
		t.Fatal(err)
	}

	if reflect.DeepEqual(cube.engine.Topology().Versions(), preVers) {
		t.Fatal("the batch bumped no view version")
	}
	loaded, err := LoadCube(&w.buf)
	if err != nil {
		t.Fatal(err)
	}
	checkCubesEqual(t, loaded, pre)
	if got := loaded.engine.Topology().Versions(); !reflect.DeepEqual(got, preVers) {
		t.Fatalf("loaded versions %v, pre-batch %v", got, preVers)
	}
}

// TestSaveLeavesDecodeCachesEmpty: on an algebraic cube no slice holds
// a row-form decode after Build or after Save; reading every view
// through View fills the caches with exactly the cube in row form,
// which is what a Save that gathered rows used to leave pinned.
func TestSaveLeavesDecodeCachesEmpty(t *testing.T) {
	in, _ := loadRandom(t, 1000, 89)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := cube.DecodedBytes(); got != 0 {
		t.Fatalf("%d decoded bytes after Build, want 0", got)
	}
	if err := cube.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := cube.DecodedBytes(); got != 0 {
		t.Fatalf("%d decoded bytes after Save, want 0", got)
	}
	var rowBytes int64
	for _, dims := range cube.Views() {
		vw, err := cube.View(dims)
		if err != nil {
			t.Fatal(err)
		}
		rowBytes += int64(vw.rows.Bytes())
	}
	if got := cube.DecodedBytes(); got != rowBytes {
		t.Fatalf("%d decoded bytes after reading every view, want the cube's %d row-form bytes", got, rowBytes)
	}
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return len(p), nil
}

// paperD8Input returns the build-full-d8 shape: d=8 with the paper's
// cardinalities, 36k rows (20k with -short).
func paperD8Input(t *testing.T) (*Input, int) {
	t.Helper()
	n := 36_000
	if testing.Short() {
		n = 20_000
	}
	spec := gen.Spec{N: n, D: 8, Cards: gen.PaperCards(), Seed: 1}
	dims := make([]Dimension, spec.D)
	for j, card := range spec.Cards {
		dims[j] = Dimension{Name: fmt.Sprintf("d%d", j), Cardinality: card}
	}
	in, err := NewInput(Schema{Dimensions: dims})
	if err != nil {
		t.Fatal(err)
	}
	g := gen.New(spec)
	row := make([]uint32, spec.D)
	for i := 0; i < n; i++ {
		g.Row(i, row)
		if err := in.AddRow(row, 1); err != nil {
			t.Fatal(err)
		}
	}
	return in, n
}

// TestBuildAllocBudget bounds what Build allocates per input row on the
// build-full-d8 shape, where the output is ~180x the input: each view's
// rows should be allocated about once, not regrown or copied between
// layers.
func TestBuildAllocBudget(t *testing.T) {
	// Measured 12.9 KB per input row (13.7 KB with -short; up to 15.1 KB
	// under -race, whose sync.Pool drops some sort scratch), plus 15 %
	// headroom. Before Pipesort sized its outputs and the exchanges
	// stopped copying key ranges it was ~42 KB.
	const budget = 17_400
	in, n := paperD8Input(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	cube, err := Build(in, Options{Processors: 4})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := float64(after.TotalAlloc - before.TotalAlloc)
	out := cube.Metrics().OutputRows
	t.Logf("Build allocated %.0f B per input row, %.1f B per output row (%d rows in, %d out), %d mallocs",
		alloc/float64(n), alloc/float64(out), n, out, after.Mallocs-before.Mallocs)
	if alloc/float64(n) > budget {
		t.Errorf("Build allocated %.0f B per input row, budget %d", alloc/float64(n), budget)
	}
}

// TestSaveFootprint: on the full d=8 cube of 36k rows on 4 processors
// (the build-full-d8 benchmark's shape; 20k rows with -short), Save
// streams sealed slices without materializing rows. It allocates at
// most an eighth of the snapshot it writes, and the live heap after it
// is within 10% of the live heap after Build.
func TestSaveFootprint(t *testing.T) {
	in, _ := paperD8Input(t)
	cube, err := Build(in, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	heapInuse := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	afterBuild := heapInuse()
	var before, after runtime.MemStats
	var w countingWriter
	runtime.ReadMemStats(&before)
	if err := cube.Save(&w); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	afterSave := heapInuse()

	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(w.n)/8 {
		t.Errorf("Save allocated %d bytes for a %d-byte snapshot, want at most 1/8", alloc, w.n)
	}
	if float64(afterSave) > 1.1*float64(afterBuild) {
		t.Errorf("heap in use %d bytes after Save, %d after Build: more than 10%% apart", afterSave, afterBuild)
	}
	t.Logf("%d cube rows, snapshot %d bytes, Save allocated %d bytes; heap in use %d after Build, %d after Save",
		cube.Metrics().OutputRows, w.n, after.TotalAlloc-before.TotalAlloc, afterBuild, afterSave)
}
