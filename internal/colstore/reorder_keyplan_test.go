package colstore

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/record"
)

// TestReorderingNarrowsKeyPlanToPackable is the PR's key-width
// acceptance check: a shape whose declared cardinalities need more
// than 128 key bits — forcing the comparison sort — becomes packable
// after the frequency remap densifies the codes, so the same data
// takes the radix path.
func TestReorderingNarrowsKeyPlanToPackable(t *testing.T) {
	t.Parallel()
	// Six declared dimensions of 2^24: 6*24 = 144 bits, over the
	// 128-bit packed-key window.
	const d = 6
	declared := make([]int, d)
	for j := range declared {
		declared[j] = 1 << 24
	}
	if kp := record.PlanKeyFromCards(declared); kp.Packable() {
		t.Fatalf("declared plan packable at %d bits; the test needs a >128-bit shape", kp.Bits())
	}

	// The data only touches 16 scattered codes per dimension — sparse
	// in the declared domain, as real fact tables are.
	rng := rand.New(rand.NewSource(7))
	domain := make([][]uint32, d)
	for j := range domain {
		seen := map[uint32]bool{}
		for len(domain[j]) < 16 {
			v := uint32(rng.Intn(1 << 24))
			if !seen[v] {
				seen[v] = true
				domain[j] = append(domain[j], v)
			}
		}
	}
	const n = 512
	tb := record.New(d, n)
	row := make([]uint32, d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			row[j] = domain[j][rng.Intn(len(domain[j]))]
		}
		tb.Append(row, int64(i))
	}

	remaps := FrequencyRemaps(tb)
	cards := RemapCards(tb, remaps)
	ApplyRemaps(tb, remaps)
	for j, c := range cards {
		if c > 16 {
			t.Fatalf("dim %d: effective cardinality %d > 16 distinct values", j, c)
		}
	}
	kp := record.PlanKeyFromCards(cards)
	if !kp.Packable() {
		t.Fatalf("remapped plan not packable: %d bits from cards %v", kp.Bits(), cards)
	}
	// This is SortWithPlan's radix gate: enough rows, the plan covers
	// every column and packs. The comparison-sort oracle below then
	// proves the radix path sorts the remapped codes correctly.
	if !(n >= 48 && kp.Cols() == d && kp.Packable()) {
		t.Fatal("radix-path gate not satisfied")
	}

	oracle := tb.Clone()
	sort.Sort(byRow{oracle})
	tb.SortWithPlan(kp, true)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			if tb.Dim(i, j) != oracle.Dim(i, j) {
				t.Fatalf("row %d dim %d: radix %d != oracle %d", i, j, tb.Dim(i, j), oracle.Dim(i, j))
			}
		}
	}
}

// byRow sorts a table by comparing whole rows — the comparison-sort
// oracle, independent of record's key packing.
type byRow struct{ *record.Table }

func (s byRow) Less(i, j int) bool { return s.Compare(i, j, s.D) < 0 }
