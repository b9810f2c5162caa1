package core

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/gen"
	"repro/internal/record"
)

// top is the bit widenKeys sets in every dimension value: an
// order-preserving shift that makes each column 32 bits wide, so rows
// of five or more columns no longer pack into 128 key bits.
const top = uint32(1) << 31

func widenKeys(t *record.Table) {
	for i := 0; i < t.Len(); i++ {
		for j := range t.Row(i) {
			t.Row(i)[j] |= top
		}
	}
}

// TestBuildCubeSortPathDeterminism is the build-level guard for the
// two sort/merge paths. Which one runs is decided by key width, so the
// same seeded rows are built twice: as generated (every key packs into
// 128 bits: radix sorts, loser-tree merges) and with the top bit of
// every value set — an order-preserving shift to 32 bits per column,
// which pushes the raw sort and every view of five or six dimensions
// onto the comparison sort and the heap merge. Every rank must hold
// the same view slices once the shift is undone. (Simulated charges
// cannot be compared across the two builds — wider values change the
// modelled byte sizes; their path independence is asserted where the
// charges are made, in extsort's tests.)
func TestBuildCubeSortPathDeterminism(t *testing.T) {
	spec := gen.Spec{N: 6000, D: 6, Cards: []int{16, 12, 8, 5, 4, 3}, Seed: 21}
	p := 4
	build := func(wide bool) (*cluster.Machine, Metrics) {
		g := gen.New(spec)
		m := cluster.New(p, costmodel.Default())
		for r := 0; r < p; r++ {
			raw := g.Slice(r, p)
			if wide {
				widenKeys(raw)
			}
			m.Proc(r).Disk().Put("raw", raw)
		}
		met, err := BuildCube(m, "raw", Config{D: spec.D})
		if err != nil {
			t.Fatal(err)
		}
		return m, met
	}
	mNarrow, metNarrow := build(false)
	mWide, metWide := build(true)

	if !reflect.DeepEqual(metNarrow.ViewRows, metWide.ViewRows) || len(metNarrow.ViewRows) != 1<<spec.D {
		t.Fatalf("view row counts differ between sort paths:\nradix:      %v\ncomparison: %v", metNarrow.ViewRows, metWide.ViewRows)
	}
	unpackable := 0
	for v := range metNarrow.ViewRows {
		for r := 0; r < p; r++ {
			narrow, okN := mNarrow.Proc(r).Disk().Get(ViewFile(v))
			wide, okW := mWide.Proc(r).Disk().Get(ViewFile(v))
			if okN != okW {
				t.Fatalf("view %v rank %d: presence differs (radix=%v comparison=%v)", v, r, okN, okW)
			}
			if !okN {
				continue
			}
			if !record.MeasureKeyPlan(wide).Packable() {
				unpackable++
			}
			unshifted := record.New(wide.D, wide.Len())
			row := make([]uint32, wide.D)
			for i := 0; i < wide.Len(); i++ {
				for j, x := range wide.Row(i) {
					row[j] = x &^ top
				}
				unshifted.Append(row, wide.Meas(i))
			}
			if !record.Equal(narrow, unshifted) {
				t.Fatalf("view %v rank %d: slices differ between sort paths", v, r)
			}
		}
	}
	if unpackable == 0 {
		t.Fatal("test premise broken: no slice of the wide build is on the comparison path")
	}
}
