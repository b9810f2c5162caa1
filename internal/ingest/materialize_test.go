package ingest

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/lattice"
	"repro/internal/record"
)

// TestMaterializeMatchesBuild retires a view from a fully built cube
// and rebuilds it online from an ancestor; the result must be
// byte-identical to the build-time slice sequence.
func TestMaterializeMatchesBuild(t *testing.T) {
	spec := gen.Spec{N: 4200, D: 4, Cards: []int{12, 8, 5, 3}, Seed: 31}
	full := lattice.ViewID(1<<4 - 1)
	nonPrefix := lattice.Root(0, 4).Remove(1) // ACD: Case 2 or 3 under ABCD
	prefix := lattice.Root(0, 4).Remove(3)    // ABC: a scan edge and Case 1
	cases := []struct {
		p         int
		src       lattice.ViewID
		targets   []lattice.ViewID
		dropEmpty bool // remove the ancestor's empty slices first
	}{
		{p: 1, src: full, targets: []lattice.ViewID{nonPrefix, prefix, lattice.Root(2, 4), lattice.Empty}},
		{p: 3, src: full, targets: []lattice.ViewID{nonPrefix, prefix, lattice.Root(2, 4), lattice.Empty}},
		// D has 3 rows: on 4 processors one holds no slice of it at all.
		{p: 4, src: lattice.Root(3, 4), targets: []lattice.ViewID{lattice.Empty}, dropEmpty: true},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("p%d-from-%v", c.p, c.src), func(t *testing.T) {
			g := gen.New(spec)
			m, met := buildBase(t, g, spec.N, c.p, core.Config{D: 4})
			if c.dropEmpty {
				dropped := 0
				for r := 0; r < c.p; r++ {
					if disk := m.Proc(r).Disk(); disk.Len(core.ViewFile(c.src)) == 0 {
						disk.Remove(core.ViewFile(c.src))
						dropped++
					}
				}
				if dropped == 0 {
					t.Fatalf("every rank holds rows of %v; the case needs one without", c.src)
				}
			}
			moved := map[lattice.ViewID]int64{}
			for _, v := range c.targets {
				want := gatherView(m, v)
				RetireView(m, v)
				for r := 0; r < c.p; r++ {
					if m.Proc(r).Disk().Has(core.ViewFile(v)) {
						t.Fatalf("view %v still on rank %d after retire", v, r)
					}
				}
				res, err := MaterializeView(m, MaterializeOptions{
					Src:      c.src,
					SrcOrder: met.ViewOrders[c.src],
					View:     v,
					Order:    met.ViewOrders[v],
				})
				if err != nil {
					t.Fatalf("materialize %v: %v", v, err)
				}
				got := gatherView(m, v)
				if !record.Equal(got, want) {
					t.Fatalf("view %v: online build differs from build-time (%d rows vs %d)",
						v, got.Len(), want.Len())
				}
				if res.Rows != int64(want.Len()) {
					t.Fatalf("view %v: result says %d rows, cube has %d", v, res.Rows, want.Len())
				}
				if res.SrcRows != core.ViewGlobalRows(m, c.src) {
					t.Fatalf("view %v: scanned %d source rows, ancestor has %d",
						v, res.SrcRows, core.ViewGlobalRows(m, c.src))
				}
				if res.SimSeconds <= 0 {
					t.Fatalf("view %v: no simulated time charged", v)
				}
				if c.p > 1 && res.BytesMoved <= 0 {
					t.Fatalf("view %v: no communication charged at p=%d", v, c.p)
				}
				for r := 0; r < c.p; r++ {
					if disk := m.Proc(r).Disk(); !disk.Sealed(core.ViewFile(v)) {
						t.Fatalf("view %v: slice on rank %d went live unsealed", v, r)
					}
				}
				checkNoBatchState(t, m)
				moved[v] = res.BytesMoved
			}
			// A prefix target is placed by the Case 1 boundary exchange; it
			// must not pay the redistribution a non-prefix target does.
			if c.p > 1 && c.src == full && moved[prefix] >= moved[nonPrefix] {
				t.Fatalf("prefix target moved %d bytes, non-prefix target of the same ancestor %d",
					moved[prefix], moved[nonPrefix])
			}
		})
	}
}

// TestMaterializeFromNonFullAncestor builds a sub-view from an
// intermediate ancestor rather than the full view — the advisor's
// smallest-ancestor path.
func TestMaterializeFromNonFullAncestor(t *testing.T) {
	spec := gen.Spec{N: 3600, D: 4, Cards: []int{12, 8, 5, 3}, Seed: 37}
	g := gen.New(spec)
	m, met := buildBase(t, g, spec.N, 2, core.Config{D: 4})
	src := lattice.Root(0, 4).Remove(3) // 3-dim ancestor
	v := src.Remove(2)                  // 2-dim target under it
	want := gatherView(m, v)
	RetireView(m, v)
	if _, err := MaterializeView(m, MaterializeOptions{
		Src: src, SrcOrder: met.ViewOrders[src],
		View: v, Order: met.ViewOrders[v],
	}); err != nil {
		t.Fatal(err)
	}
	if got := gatherView(m, v); !record.Equal(got, want) {
		t.Fatalf("view %v from ancestor %v differs from build-time (%d rows vs %d)",
			v, src, got.Len(), want.Len())
	}
}

func TestMaterializeValidation(t *testing.T) {
	spec := gen.Spec{N: 1000, D: 3, Cards: []int{8, 5, 3}, Seed: 41}
	g := gen.New(spec)
	m, met := buildBase(t, g, spec.N, 2, core.Config{D: 3})
	full := lattice.ViewID(1<<3 - 1)
	v := lattice.Root(0, 3).Remove(1)
	good := MaterializeOptions{
		Src: full, SrcOrder: met.ViewOrders[full],
		View: v, Order: met.ViewOrders[v],
	}

	bad := good
	bad.MergeGamma = 2
	if _, err := MaterializeView(m, bad); err == nil {
		t.Fatal("bad gamma accepted")
	}
	bad = good
	bad.Order = met.ViewOrders[full] // order covers the wrong view
	if _, err := MaterializeView(m, bad); err == nil {
		t.Fatal("order/view mismatch accepted")
	}
	bad = good
	bad.SrcOrder = met.ViewOrders[v]
	if _, err := MaterializeView(m, bad); err == nil {
		t.Fatal("source order mismatch accepted")
	}
	bad = good
	bad.View = full // not a strict subset
	bad.Order = met.ViewOrders[full]
	if _, err := MaterializeView(m, bad); err == nil {
		t.Fatal("non-subset target accepted")
	}
	checkNoBatchState(t, m) // validation must not leave stage files

	// The live cube is untouched by the failed attempts.
	if !m.Proc(0).Disk().Has(core.ViewFile(v)) {
		t.Fatalf("failed materializations damaged live view %v", v)
	}
}

func TestRetireViewRemovesAllSlices(t *testing.T) {
	spec := gen.Spec{N: 1200, D: 3, Cards: []int{8, 5, 3}, Seed: 43}
	g := gen.New(spec)
	m, _ := buildBase(t, g, spec.N, 3, core.Config{D: 3})
	v := lattice.Root(0, 3).Remove(2)
	other := lattice.Root(0, 3)
	before := gatherView(m, other)
	RetireView(m, v)
	for r := 0; r < 3; r++ {
		if m.Proc(r).Disk().Has(core.ViewFile(v)) {
			t.Fatalf("rank %d still holds retired view %v", r, v)
		}
	}
	if !record.Equal(gatherView(m, other), before) {
		t.Fatalf("retiring %v modified sibling view %v", v, other)
	}
}
