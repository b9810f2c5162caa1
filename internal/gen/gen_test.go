package gen

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/record"
)

func baseSpec() Spec {
	return Spec{N: 5000, D: 4, Cards: []int{16, 8, 4, 2}, Seed: 1}
}

func TestValidate(t *testing.T) {
	good := baseSpec()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Spec{
		{N: -1, D: 1, Cards: []int{2}},
		{N: 10, D: 0, Cards: nil},
		{N: 10, D: 2, Cards: []int{4}},
		{N: 10, D: 1, Cards: []int{0}},
		{N: 10, D: 2, Cards: []int{4, 8}},                            // increasing cards
		{N: 10, D: 2, Cards: []int{8, 4}, Skews: []float64{0}},       // skew len
		{N: 10, D: 2, Cards: []int{8, 4}, Skews: []float64{0, -0.5}}, // negative skew
	}
	for i, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestDeterministicAndPIndependent(t *testing.T) {
	g := New(baseSpec())
	all := g.All()
	for _, p := range []int{1, 3, 4, 7} {
		merged := record.New(g.Spec().D, 0)
		for r := 0; r < p; r++ {
			merged.AppendTable(g.Slice(r, p))
		}
		if !record.Equal(merged, all) {
			t.Fatalf("union of %d slices differs from full data set", p)
		}
	}
	// Re-created generator yields identical data.
	if !record.Equal(New(baseSpec()).All(), all) {
		t.Fatal("generator not deterministic")
	}
}

func TestSeedChangesData(t *testing.T) {
	s1, s2 := baseSpec(), baseSpec()
	s2.Seed = 2
	if record.Equal(New(s1).All(), New(s2).All()) {
		t.Fatal("different seeds produced identical data")
	}
}

func TestValuesWithinCardinality(t *testing.T) {
	f := func(seed int64, alphaRaw uint8) bool {
		spec := Spec{
			N: 500, D: 3, Cards: []int{7, 5, 3},
			Skews: []float64{float64(alphaRaw % 4), 0, float64(alphaRaw%4) / 2},
			Seed:  seed,
		}
		tb := New(spec).All()
		for i := 0; i < tb.Len(); i++ {
			for j := 0; j < spec.D; j++ {
				if int(tb.Dim(i, j)) >= spec.Cards[j] {
					return false
				}
			}
			if tb.Meas(i) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformIsRoughlyUniform(t *testing.T) {
	spec := Spec{N: 50000, D: 1, Cards: []int{10}, Seed: 3}
	tb := New(spec).All()
	counts := make([]int, 10)
	for i := 0; i < tb.Len(); i++ {
		counts[tb.Dim(i, 0)]++
	}
	for v, c := range counts {
		if math.Abs(float64(c)-5000) > 500 {
			t.Fatalf("value %d appeared %d times, want ~5000", v, c)
		}
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	// With alpha = 2 over card 100, value 0 should dominate; compare
	// against alpha = 0.
	mass := func(alpha float64) float64 {
		spec := Spec{N: 20000, D: 1, Cards: []int{100}, Skews: []float64{alpha}, Seed: 4}
		tb := New(spec).All()
		zero := 0
		for i := 0; i < tb.Len(); i++ {
			if tb.Dim(i, 0) == 0 {
				zero++
			}
		}
		return float64(zero) / float64(tb.Len())
	}
	uniform, skewed := mass(0), mass(2)
	if uniform > 0.05 {
		t.Fatalf("uniform mass at 0 = %v", uniform)
	}
	if skewed < 0.5 {
		t.Fatalf("alpha=2 mass at 0 = %v, want > 0.5", skewed)
	}
}

func TestSkewIncreasesDataReduction(t *testing.T) {
	// §4.3: higher skew means more duplicate rows, hence smaller
	// aggregated root. Verify distinct counts fall as alpha rises.
	distinct := func(alpha float64) int {
		spec := Spec{
			N: 20000, D: 4, Cards: []int{16, 8, 4, 2},
			Skews: []float64{alpha, alpha, alpha, alpha}, Seed: 5,
		}
		tb := New(spec).All()
		return record.SortAggregateAgg(tb, record.Agg{Op: record.OpSum}).Len()
	}
	d0, d1, d3 := distinct(0), distinct(1), distinct(3)
	if !(d0 >= d1 && d1 > d3) {
		t.Fatalf("distinct counts not decreasing with skew: %d, %d, %d", d0, d1, d3)
	}
}

func TestPaperCards(t *testing.T) {
	cards := PaperCards()
	if len(cards) != 8 || cards[0] != 256 || cards[7] != 6 {
		t.Fatalf("PaperCards = %v", cards)
	}
	spec := Spec{N: 10, D: 8, Cards: cards, Seed: 1}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTableRangePanics(t *testing.T) {
	g := New(baseSpec())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Table(0, g.Spec().N+1)
}

func TestSliceBoundsCoverExactly(t *testing.T) {
	spec := baseSpec()
	spec.N = 17 // not divisible by p
	g := New(spec)
	total := 0
	for r := 0; r < 5; r++ {
		total += g.Slice(r, 5).Len()
	}
	if total != 17 {
		t.Fatalf("slices cover %d rows, want 17", total)
	}
}
