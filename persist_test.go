package rolap

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"strings"
	"testing"

	"repro/internal/colstore"
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
		want, err := cube.engine.PickSource(mustView(t, cube, dims))
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.engine.PickSource(mustView(t, loaded, dims))
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
	origVers := cube.engine.Versions()
	loadVers := loaded.engine.Versions()
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
// 2 (flat row arrays per view), kept here only to hand-encode streams
// the loader must refuse.
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

// TestLoadCubeRejectsUntrustedSnapshots: every way a stream can lie to
// the one remaining loader returns an error — the right typed one
// where there is one — and never panics or yields a cube.
func TestLoadCubeRejectsUntrustedSnapshots(t *testing.T) {
	in, _ := loadRandom(t, 600, 131)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := cube.Save(&good); err != nil {
		t.Fatal(err)
	}
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
		for _, v := range cube.views {
			rows := cube.gatherViewRaw(v)
			lv := legacyView{View: uint32(v), Order: cube.orders[v]}
			for i := 0; i < rows.Len(); i++ {
				lv.Dims = append(lv.Dims, rows.Row(i)...)
				lv.Meas = append(lv.Meas, rows.Meas(i))
			}
			lc.Views = append(lc.Views, lv)
		}
		return encode(lc)
	}
	// damaged re-encodes the good snapshot after one mutation.
	damaged := func(damage func(sc *savedCube)) []byte {
		t.Helper()
		var sc savedCube
		if err := gob.NewDecoder(bytes.NewReader(good.Bytes())).Decode(&sc); err != nil {
			t.Fatal(err)
		}
		damage(&sc)
		return encode(sc)
	}
	// widest returns the saved view with the most dimensions.
	widest := func(sc *savedCube) *savedView {
		best := &sc.Views[0]
		for i := range sc.Views {
			if len(sc.Views[i].Order) > len(best.Order) {
				best = &sc.Views[i]
			}
		}
		return best
	}

	cases := []struct {
		name   string
		stream []byte
		is     error // nil: any error will do
	}{
		{"not a gob", []byte("not a gob"), nil},
		{"version 1", legacy(1), ErrUnsupportedSnapshot},
		{"version 2", legacy(2), ErrUnsupportedSnapshot},
		{"future version", encode(savedCube{Version: 99}), ErrUnsupportedSnapshot},
		{"checksums stripped", damaged(func(sc *savedCube) {
			for i := range sc.Views {
				sc.Views[i].Sums = nil
			}
		}), colstore.ErrCorrupt},
		{"checksums short", damaged(func(sc *savedCube) {
			sv := widest(sc)
			sv.Sums = sv.Sums[:len(sv.Sums)-1]
		}), colstore.ErrCorrupt},
		{"p = 1<<30", damaged(func(sc *savedCube) { sc.Metrics.Processors = 1 << 30 }), nil},
		{"p = 0", damaged(func(sc *savedCube) { sc.Metrics.Processors = 0 }), nil},
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
			sc.Views = append(sc.Views, sc.Views[0])
		}), nil},
		{"rank placed twice", damaged(func(sc *savedCube) {
			sv := widest(sc)
			sv.Ranks = append([]int(nil), sv.Ranks...)
			sv.Ranks[1] = sv.Ranks[0]
		}), nil},
	}
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

func mustAggregate(t *testing.T, c *Cube, dims []string, key []uint32) int64 {
	t.Helper()
	got, err := c.Aggregate(dims, key)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSaveLoadColumnarMatchesRowOracle: a snapshot is the format-3
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
	var sc savedCube
	if err := gob.NewDecoder(bytes.NewReader(snap.Bytes())).Decode(&sc); err != nil {
		t.Fatal(err)
	}
	if sc.Version != 3 {
		t.Fatalf("save wrote version %d, want 3", sc.Version)
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
		var sc savedCube
		if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&sc); err != nil {
			t.Fatal(err)
		}
		if !damage(&sc) {
			t.Fatal("no columnar block to damage")
		}
		var bad bytes.Buffer
		if err := gob.NewEncoder(&bad).Encode(sc); err != nil {
			t.Fatal(err)
		}
		_, err := LoadCube(&bad)
		return err
	}

	err = corrupt(t, func(sc *savedCube) bool {
		for i := range sc.Views {
			for _, s := range sc.Views[i].Slices {
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
		for i := range sc.Views {
			for _, s := range sc.Views[i].Slices {
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

// TestLoadCubeTruncatedStream: cutting the gob stream at arbitrary
// points must produce an error, not a panic or a partial cube.
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
	for _, k := range []int{1, len(b) / 4, len(b) / 2, 3 * len(b) / 4, len(b) - 1} {
		if _, err := LoadCube(bytes.NewReader(b[:k])); err == nil {
			t.Fatalf("truncation at %d of %d bytes accepted", k, len(b))
		}
	}
}
