package colstore_test

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	rolap "repro"
	"repro/internal/record"
)

// TestReorderingNarrowsKeyPlanToPackable is the key-width acceptance
// check of LoadCSV's attribute-value reordering: a fact table whose raw
// values, taken as codes, need more than 128 key bits — forcing the
// comparison sort — loads with dense frequency-ordered codes whose
// cardinalities pack, so the same data takes the radix path.
func TestReorderingNarrowsKeyPlanToPackable(t *testing.T) {
	t.Parallel()
	// Six dimensions whose values are scattered over [0, 2^24): 6*24 =
	// 144 bits, over the 128-bit packed-key window.
	const d = 6
	raw := make([]int, d)
	for j := range raw {
		raw[j] = 1 << 24
	}
	if record.PlanKeyFromCards(raw).Packable() {
		t.Fatal("raw plan packable; the test needs a >128-bit shape")
	}

	// The data only touches 16 scattered values per dimension, the
	// first of each drawn far more often than the rest.
	rng := rand.New(rand.NewSource(7))
	domain := make([][]string, d)
	for j := range domain {
		seen := map[int]bool{}
		for len(domain[j]) < 16 {
			v := rng.Intn(1 << 24)
			if !seen[v] {
				seen[v] = true
				domain[j] = append(domain[j], fmt.Sprint(v))
			}
		}
	}
	const n = 512
	var csv strings.Builder
	names := make([]string, d)
	for j := range names {
		names[j] = fmt.Sprintf("d%d", j)
	}
	csv.WriteString(strings.Join(names, ",") + ",measure\n")
	facts := make([][]string, n)
	for i := range facts {
		facts[i] = make([]string, d)
		for j := range facts[i] {
			k := 0
			if rng.Intn(2) == 1 {
				k = rng.Intn(len(domain[j]))
			}
			facts[i][j] = domain[j][k]
		}
		fmt.Fprintf(&csv, "%s,%d\n", strings.Join(facts[i], ","), i)
	}
	in, err := rolap.LoadCSV(strings.NewReader(csv.String()), rolap.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cards := make([]int, d)
	for j, dim := range in.Schema().Dimensions {
		if dim.Name != names[j] {
			t.Fatalf("dimension %d is %q, want %q", j, dim.Name, names[j])
		}
		cards[j] = dim.Cardinality
		if cards[j] > 16 {
			t.Fatalf("dim %d: cardinality %d > 16 distinct values", j, cards[j])
		}
		// Codes are assigned by descending frequency.
		if c, _ := in.CodeOf(dim.Name, domain[j][0]); c != 0 {
			t.Fatalf("dim %d: most frequent value has code %d, want 0", j, c)
		}
	}
	kp := record.PlanKeyFromCards(cards)
	// This is SortWithPlan's radix gate: enough rows, the plan covers
	// every column and packs. The comparison-sort oracle below then
	// proves the radix path sorts the loaded codes correctly.
	if !(n >= 48 && kp.Cols() == d && kp.Packable()) {
		t.Fatalf("loaded plan from cards %v does not take the radix path", cards)
	}

	tb := record.New(d, n)
	row := make([]uint32, d)
	for i, fact := range facts {
		for j, v := range fact {
			row[j], _ = in.CodeOf(names[j], v)
		}
		tb.Append(row, int64(i))
	}
	oracle := tb.Clone()
	sort.Sort(byRow{oracle})
	tb.SortWithPlan(kp, true)
	for i := 0; i < n; i++ {
		if record.CompareTables(tb, i, oracle, i, d) != 0 {
			t.Fatalf("row %d: radix %v != oracle %v", i, tb.Row(i), oracle.Row(i))
		}
	}
}

// TestFrequencyRemaps: LoadCSV assigns a dimension's codes by
// descending frequency, so three values that first appear in reverse
// frequency order, at scattered raw values, load as codes 0, 1, 2 with
// cardinality 3.
func TestFrequencyRemaps(t *testing.T) {
	t.Parallel()
	var csv strings.Builder
	csv.WriteString("region,measure\n")
	for _, vc := range []struct {
		v string
		n int
	}{{"70000", 10}, {"5", 30}, {"9000", 60}} {
		for i := 0; i < vc.n; i++ {
			fmt.Fprintf(&csv, "%s,1\n", vc.v)
		}
	}
	in, err := rolap.LoadCSV(strings.NewReader(csv.String()), rolap.CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for want, v := range []string{"9000", "5", "70000"} {
		if c, ok := in.CodeOf("region", v); !ok || c != uint32(want) {
			t.Fatalf("value %s has code %d (found %v), want %d", v, c, ok, want)
		}
	}
	if card := in.Schema().Dimensions[0].Cardinality; card != 3 {
		t.Fatalf("effective cardinality %d, want 3", card)
	}
}

// byRow sorts a table by comparing whole rows — the comparison-sort
// oracle, independent of record's key packing.
type byRow struct{ *record.Table }

func (s byRow) Less(i, j int) bool { return s.Compare(i, j, s.D) < 0 }
