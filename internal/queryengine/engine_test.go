package queryengine

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/record"
)

// buildTestCube builds a small full cube on p processors and returns
// the machine, the build metrics, and the generator's flat data for
// oracle checks.
func buildTestCube(t *testing.T, n, d, p int, cards []int) (*cluster.Machine, core.Metrics, *record.Table) {
	t.Helper()
	spec := gen.Spec{N: n, D: d, Cards: cards, Seed: 7}
	g := gen.New(spec)
	m := cluster.New(p, costmodel.Default())
	for r := 0; r < p; r++ {
		m.Proc(r).Disk().Put("raw", g.Slice(r, p))
	}
	met, err := core.BuildCube(m, "raw", core.Config{D: d})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	return m, met, g.All()
}

// oracle computes the query result by brute force over the raw data,
// which is in canonical dimension order (dimension i is column i).
func oracle(raw *record.Table, q Query, op record.AggOp) *record.Table {
	proj := record.New(len(q.Group), 0)
	key := make([]uint32, len(q.Group))
	for i := 0; i < raw.Len(); i++ {
		keep := true
		for _, b := range q.Bounds {
			if v := raw.Dim(i, b.Dim); v < b.Lo || v > b.Hi {
				keep = false
				break
			}
		}
		if !keep {
			continue
		}
		for k, dim := range q.Group {
			key[k] = raw.Dim(i, dim)
		}
		proj.Append(key, raw.Meas(i))
	}
	return record.SortAggregateAgg(proj, record.Agg{Op: op})
}

func TestExecuteMatchesOracle(t *testing.T) {
	m, met, raw := buildTestCube(t, 3000, 4, 3, []int{16, 8, 6, 4})
	e := New(m, met.ViewOrders, met.ViewRows, record.OpSum)

	cases := []struct {
		group  []int
		bounds map[int][2]uint32
	}{
		{group: []int{1}, bounds: nil},
		{group: []int{2, 0}, bounds: map[int][2]uint32{1: {3, 3}}},
		{group: []int{3}, bounds: map[int][2]uint32{0: {2, 9}, 1: {1, 4}}},
		{group: nil, bounds: map[int][2]uint32{0: {5, 5}}},
		{group: nil, bounds: nil}, // grand total
		{group: []int{0, 1, 2, 3}, bounds: nil},
	}
	for i, tc := range cases {
		q, err := e.NewQuery(tc.group, tc.bounds)
		if err != nil {
			t.Fatalf("case %d: plan: %v", i, err)
		}
		got, qm, err := e.Execute(q)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want := oracle(raw, q, record.OpSum)
		if !record.Equal(got, want) {
			t.Fatalf("case %d: result mismatch\ngot  %v\nwant %v", i, got, want)
		}
		if qm.SimSeconds <= 0 {
			t.Fatalf("case %d: no simulated time charged", i)
		}
		if src, _ := e.Topology().PickSource(q.Need()); qm.Source != src {
			t.Fatalf("case %d: metrics source %v, smallest cover %v", i, qm.Source, src)
		}
	}
}

func TestIndexScansStrictlyFewerRows(t *testing.T) {
	m, met, _ := buildTestCube(t, 4000, 4, 2, []int{16, 8, 6, 4})
	e := New(m, met.ViewOrders, met.ViewRows, record.OpSum)

	// Equality on the leading sort-order dimension of the full view,
	// grouped by the other three so that the full view is the only
	// cover: the prefix index applies.
	full := lattice.Full(4)
	order := met.ViewOrders[full]
	q := Query{Group: order[1:], Bounds: []Bound{{Dim: order[0], Lo: 3, Hi: 3}}}

	indexed, im, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	qs := q
	qs.NoIndex = true
	scanned, sm, err := e.Execute(qs)
	if err != nil {
		t.Fatal(err)
	}
	if !record.Equal(indexed, scanned) {
		t.Fatalf("indexed and scanned results differ (order %v)", order)
	}
	if !im.IndexUsed || sm.IndexUsed {
		t.Fatalf("IndexUsed flags: indexed=%v scanned=%v", im.IndexUsed, sm.IndexUsed)
	}
	if im.RowsScanned >= sm.RowsScanned {
		t.Fatalf("indexed query scanned %d rows, full scan %d — want strictly fewer", im.RowsScanned, sm.RowsScanned)
	}
	if sm.RowsScanned != met.ViewRows[full] {
		t.Fatalf("full scan touched %d rows, view has %d", sm.RowsScanned, met.ViewRows[full])
	}
}

func TestIndexRangeAndMissingValue(t *testing.T) {
	m, met, raw := buildTestCube(t, 2000, 3, 2, []int{10, 6, 4})
	e := New(m, met.ViewOrders, met.ViewRows, record.OpSum)
	full := lattice.Full(3)
	order := met.ViewOrders[full]
	leadDim := order[0]

	// Range on the leading column (grouped by the others, so the full
	// view is the only cover): index brackets the runs.
	q := Query{Group: order[1:], Bounds: []Bound{{Dim: leadDim, Lo: 2, Hi: 5}}}
	got, qm, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if !qm.IndexUsed {
		t.Fatal("range on leading column did not use the index")
	}
	want := oracle(raw, q, record.OpSum)
	if !record.Equal(got, want) {
		t.Fatalf("range result mismatch (lead dim %d)", leadDim)
	}

	// Equality on a value outside the slice: empty result, near-zero scan.
	q = Query{Group: order[1:], Bounds: []Bound{{Dim: leadDim, Lo: 999, Hi: 999}}}
	got, qm, err = e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("missing value matched %d groups", got.Len())
	}
	if qm.RowsScanned != 0 {
		t.Fatalf("missing value scanned %d rows", qm.RowsScanned)
	}
}

func TestPickSourceDeterministicTieBreak(t *testing.T) {
	// Two candidate views with identical row counts: the smaller ViewID
	// must win, every time.
	tp := &Topology{views: []*viewState{
		{id: 0b011, order: lattice.Order{0, 1}, rows: 42},
		{id: 0b101, order: lattice.Order{0, 2}, rows: 42},
	}}
	for i := 0; i < 50; i++ {
		v, err := tp.PickSource(0b001)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0b011 {
			t.Fatalf("iteration %d: picked %v, want %v", i, v, lattice.ViewID(0b011))
		}
	}
	// Fewer rows still beats a smaller ID.
	tp.views[1].rows = 10
	if v, _ := tp.PickSource(0b001); v != 0b101 {
		t.Fatalf("picked %v over the smaller view", v)
	}
	if _, err := tp.PickSource(0b1000); err == nil {
		t.Fatal("uncovered dimension did not error")
	}
}

func TestNewQueryValidation(t *testing.T) {
	m, met, _ := buildTestCube(t, 500, 3, 2, []int{8, 4, 3})
	e := New(m, met.ViewOrders, met.ViewRows, record.OpSum)
	if _, err := e.NewQuery([]int{0, 0}, nil); err == nil {
		t.Fatal("repeated group dimension accepted")
	}
	// A bound on a grouped dimension is valid: it restricts which
	// groups survive ("group by d0 where d0 = 1").
	q, err := e.NewQuery([]int{0}, map[int][2]uint32{0: {1, 1}})
	if err != nil {
		t.Fatalf("grouped+filtered dimension rejected: %v", err)
	}
	got, _, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < got.Len(); i++ {
		if got.Dim(i, 0) != 1 {
			t.Fatalf("row %d has group key %d, want only 1", i, got.Dim(i, 0))
		}
	}
	if got.Len() != 1 {
		t.Fatalf("grouped+filtered returned %d groups, want 1", got.Len())
	}
	if _, err := e.NewQuery([]int{1}, map[int][2]uint32{2: {5, 2}}); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestExecuteConcurrentCallers(t *testing.T) {
	m, met, raw := buildTestCube(t, 1500, 3, 2, []int{10, 6, 4})
	e := New(m, met.ViewOrders, met.ViewRows, record.OpSum)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				q, err := e.NewQuery([]int{w % 3}, map[int][2]uint32{(w + 1) % 3: {0, uint32(i)}})
				if err != nil {
					errs <- err
					return
				}
				got, _, err := e.Execute(q)
				if err != nil {
					errs <- err
					return
				}
				want := oracle(raw, q, record.OpSum)
				if !record.Equal(got, want) {
					errs <- fmt.Errorf("worker %d query %d: mismatch", w, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRacingQueriesBuildIndexOnce races eight identical indexed queries
// to a cold prefix index, round after round (each round drops the
// view's indexes first). Each (view, rank) index must be built once per
// round and paid for once: every disk's reads and the machine's
// counters must equal those of the same queries run one after another
// on an identical machine, where only the first of a round builds it.
func TestRacingQueriesBuildIndexOnce(t *testing.T) {
	const clients, rounds = 8, 100
	run := func(concurrent bool) string {
		m, met, _ := buildTestCube(t, 1500, 3, 3, []int{10, 6, 4})
		e := New(m, met.ViewOrders, met.ViewRows, record.OpSum)
		q, err := e.NewQuery([]int{1}, map[int][2]uint32{0: {3, 3}})
		if err != nil {
			t.Fatal(err)
		}
		src, err := e.Topology().PickSource(q.Need())
		if err != nil {
			t.Fatal(err)
		}
		exec := func() {
			if _, met, err := e.Execute(q); err != nil || !met.IndexUsed {
				t.Errorf("indexed query: %v (index used: %v)", err, met.IndexUsed)
			}
		}
		before := m.Stats()
		for round := 0; round < rounds; round++ {
			e.InvalidateViews(map[lattice.ViewID]int64{src: e.Topology().Rows(src)})
			start := make(chan struct{})
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				if !concurrent {
					exec()
					continue
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					exec()
				}()
			}
			close(start)
			wg.Wait()
		}
		after := m.Stats()
		out := fmt.Sprint(after.BytesMoved-before.BytesMoved, after.Messages-before.Messages, after.Supersteps-before.Supersteps)
		for r := 0; r < m.P(); r++ {
			out += fmt.Sprintf(" %+v", m.Proc(r).Disk().Stats())
		}
		return out
	}
	if seq, par := run(false), run(true); par != seq {
		t.Fatalf("racing queries charged %s, sequential %s", par, seq)
	}
}

// TestUnsealedViewIsAnError: every live view file is sealed as it goes
// live, so an index lookup that meets a row-form one is a broken
// invariant. Execute returns it as an error naming the view and rank.
func TestUnsealedViewIsAnError(t *testing.T) {
	m, met, _ := buildTestCube(t, 500, 3, 2, []int{8, 4, 3})
	full := lattice.Full(3)
	disk := m.Proc(1).Disk()
	rows, _, _ := disk.Read(core.ViewFile(full))
	disk.Put(core.ViewFile(full), rows.Clone())
	e := New(m, met.ViewOrders, met.ViewRows, record.OpSum)
	order := met.ViewOrders[full]
	_, _, err := e.Execute(Query{Group: order[1:], Bounds: []Bound{{Dim: order[0], Lo: 1, Hi: 1}}})
	if err == nil {
		t.Fatal("index lookup on an unsealed view file succeeded")
	}
	if msg := err.Error(); !strings.Contains(msg, "rank 1") || !strings.Contains(msg, fmt.Sprint(full)) {
		t.Fatalf("error %q does not name view %v and rank 1", msg, full)
	}
}
