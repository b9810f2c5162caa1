package rolap

import (
	"math/rand"
	"strings"
	"testing"
)

func testSchema() Schema {
	return Schema{Dimensions: []Dimension{
		{Name: "month", Cardinality: 12}, // deliberately not card-sorted
		{Name: "store", Cardinality: 40},
		{Name: "product", Cardinality: 25},
		{Name: "channel", Cardinality: 3},
	}}
}

// loadRandom fills an input with deterministic pseudo-random facts and
// returns a ground-truth group-by oracle.
func loadRandom(t testing.TB, n int, seed int64) (*Input, func(dims []string, key []uint32) int64) {
	t.Helper()
	in, err := NewInput(testSchema())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	type fact struct {
		vals [4]uint32
		m    int64
	}
	var facts []fact
	cards := []int{12, 40, 25, 3}
	for i := 0; i < n; i++ {
		var f fact
		for j, c := range cards {
			f.vals[j] = uint32(rng.Intn(c))
		}
		f.m = int64(rng.Intn(100))
		facts = append(facts, f)
		if err := in.AddRow(f.vals[:], f.m); err != nil {
			t.Fatal(err)
		}
	}
	names := []string{"month", "store", "product", "channel"}
	oracle := func(dims []string, key []uint32) int64 {
		var total int64
		for _, f := range facts {
			ok := true
			for k, dim := range dims {
				for j, nm := range names {
					if nm == dim && f.vals[j] != key[k] {
						ok = false
					}
				}
			}
			if ok {
				total += f.m
			}
		}
		return total
	}
	return in, oracle
}

func TestSchemaValidation(t *testing.T) {
	bad := []Schema{
		{},
		{Dimensions: []Dimension{{Name: "", Cardinality: 2}}},
		{Dimensions: []Dimension{{Name: "a", Cardinality: 0}}},
		{Dimensions: []Dimension{{Name: "a", Cardinality: 2}, {Name: "a", Cardinality: 2}}},
	}
	for i, s := range bad {
		if _, err := NewInput(s); err == nil {
			t.Errorf("schema %d should be rejected", i)
		}
	}
}

func TestAddRowValidation(t *testing.T) {
	in, _ := NewInput(testSchema())
	if err := in.AddRow([]uint32{1, 2}, 1); err == nil {
		t.Fatal("short row accepted")
	}
	if err := in.AddRow([]uint32{12, 0, 0, 0}, 1); err == nil {
		t.Fatal("out-of-range month accepted")
	}
	if err := in.AddRow([]uint32{11, 39, 24, 2}, 1); err != nil {
		t.Fatalf("valid row rejected: %v", err)
	}
	if in.Len() != 1 {
		t.Fatalf("Len = %d", in.Len())
	}
}

func TestBuildFullCubeAndQuery(t *testing.T) {
	in, oracle := loadRandom(t, 2000, 1)
	cube, err := Build(in, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cube.Views()); got != 16 {
		t.Fatalf("views = %d, want 16", got)
	}
	if cube.Processors() != 4 {
		t.Fatalf("Processors = %d", cube.Processors())
	}
	// Point queries on materialized views across several shapes.
	queries := []struct {
		dims []string
		key  []uint32
	}{
		{[]string{"store"}, []uint32{7}},
		{[]string{"month", "channel"}, []uint32{3, 1}},
		{[]string{"product", "store"}, []uint32{11, 20}},
		{[]string{"month", "store", "product", "channel"}, []uint32{5, 5, 5, 1}},
		{nil, nil},
	}
	for _, q := range queries {
		got, err := cube.Aggregate(q.dims, q.key)
		if err != nil {
			t.Fatalf("query %v: %v", q.dims, err)
		}
		if want := oracle(q.dims, q.key); got != want {
			t.Fatalf("query %v key %v = %d, want %d", q.dims, q.key, got, want)
		}
	}
}

func TestViewContents(t *testing.T) {
	in, oracle := loadRandom(t, 1500, 2)
	cube, err := Build(in, Options{Processors: 3})
	if err != nil {
		t.Fatal(err)
	}
	vw, err := cube.View([]string{"channel", "month"})
	if err != nil {
		t.Fatal(err)
	}
	if len(vw.Attributes) != 2 {
		t.Fatalf("attributes = %v", vw.Attributes)
	}
	var sum int64
	for i := 0; i < vw.Len(); i++ {
		key, m := vw.Row(i)
		// Cross-check each group against the oracle.
		if want := oracle(vw.Attributes, key); want != m {
			t.Fatalf("group %v = %d, want %d", key, m, want)
		}
		sum += m
		// Aggregate must agree with Row.
		got, ok := vw.Aggregate(key)
		if !ok || got != m {
			t.Fatalf("Aggregate(%v) = %d,%v", key, got, ok)
		}
	}
	if total, _ := cube.Aggregate(nil, nil); total != sum {
		t.Fatalf("view mass %d != grand total %d", sum, total)
	}
	if _, ok := vw.Aggregate([]uint32{99, 99}); ok {
		t.Fatal("phantom group found")
	}
	if _, ok := vw.Aggregate([]uint32{1}); ok {
		t.Fatal("short key accepted")
	}
}

func TestPartialCubeSelectionAndFallback(t *testing.T) {
	in, oracle := loadRandom(t, 1200, 3)
	cube, err := Build(in, Options{
		Processors: 3,
		SelectedViews: [][]string{
			{"store", "product"},
			{"store"},
			{},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cube.Views()); got != 3 {
		t.Fatalf("views = %d, want 3", got)
	}
	// Materialized view answered directly.
	got, err := cube.Aggregate([]string{"store"}, []uint32{4})
	if err != nil || got != oracle([]string{"store"}, []uint32{4}) {
		t.Fatalf("materialized query wrong: %d, %v", got, err)
	}
	// Unmaterialized view ("product") answered via the smallest
	// materialized superset (store,product).
	got, err = cube.Aggregate([]string{"product"}, []uint32{9})
	if err != nil || got != oracle([]string{"product"}, []uint32{9}) {
		t.Fatalf("fallback query wrong: %d, %v", got, err)
	}
	// A view outside every materialized superset errors.
	if _, err := cube.Aggregate([]string{"month"}, []uint32{1}); err == nil {
		t.Fatal("unanswerable query did not error")
	}
	// Unmaterialized views are not gatherable.
	if _, err := cube.View([]string{"month"}); err == nil {
		t.Fatal("View on unmaterialized view did not error")
	}
}

func TestBuildOptionValidation(t *testing.T) {
	in, _ := loadRandom(t, 100, 4)
	if _, err := Build(nil, Options{}); err == nil {
		t.Fatal("nil input accepted")
	}
	if _, err := Build(in, Options{Processors: -1}); err == nil {
		t.Fatal("negative processors accepted")
	}
	if _, err := Build(in, Options{SelectedViews: [][]string{{"bogus"}}}); err == nil {
		t.Fatal("unknown dimension accepted")
	}
	if _, err := Build(in, Options{SelectedViews: [][]string{{"store", "store"}}}); err == nil {
		t.Fatal("repeated dimension accepted")
	}
}

func TestBuildVariantsAgree(t *testing.T) {
	in, _ := loadRandom(t, 1500, 5)
	base, err := Build(in, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	variants := []Options{
		{Processors: 1},
		{Processors: 7},
		{Processors: 4, LocalScheduleTrees: true},
		{Processors: 4, FlajoletMartin: true},
		{Processors: 4, Hardware: ModernCluster},
		{Processors: 4, MergeGamma: 0.07},
	}
	for i, opts := range variants {
		c, err := Build(in, opts)
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if c.Metrics().OutputRows != base.Metrics().OutputRows {
			t.Fatalf("variant %d rows %d != base %d", i, c.Metrics().OutputRows, base.Metrics().OutputRows)
		}
	}
}

func TestMetrics(t *testing.T) {
	in, _ := loadRandom(t, 2000, 6)
	cube, err := Build(in, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	met := cube.Metrics()
	if met.SimSeconds <= 0 || met.OutputRows == 0 || met.OutputBytes == 0 {
		t.Fatalf("metrics empty: %+v", met)
	}
	if met.BytesMoved <= 0 || met.MergeBytes < 0 {
		t.Fatalf("communication metrics wrong: %+v", met)
	}
	for _, name := range []string{"partition", "build", "merge"} {
		if met.PhaseSeconds[name] <= 0 {
			t.Fatalf("phase %s missing", name)
		}
	}
	// The grand total view has one row.
	if met.ViewRows[""] != 1 {
		t.Fatalf("grand total rows = %d", met.ViewRows[""])
	}
	// View keys are sorted dimension names.
	found := false
	for k := range met.ViewRows {
		if k == "channel,month" {
			found = true
		}
		if strings.Contains(k, " ") {
			t.Fatalf("view key %q malformed", k)
		}
	}
	if !found {
		t.Fatal("expected view key channel,month")
	}
}

// TestOverlapCommOption checks the public plumbing of the §4.1
// overlap: same cube, lower simulated time, improvement within the
// maskable bound, and the masked seconds surfaced in Metrics.
func TestOverlapCommOption(t *testing.T) {
	in, oracle := loadRandom(t, 3000, 8)
	base, err := Build(in, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	ov, err := Build(in, Options{Processors: 4, OverlapComm: true})
	if err != nil {
		t.Fatal(err)
	}
	bm, om := base.Metrics(), ov.Metrics()
	if om.SimSeconds >= bm.SimSeconds {
		t.Fatalf("overlap not faster: %.3f vs %.3f", om.SimSeconds, bm.SimSeconds)
	}
	if imp := (bm.SimSeconds - om.SimSeconds) / bm.SimSeconds; imp > bm.MaskableCommFraction+1e-9 {
		t.Fatalf("improvement %.4f exceeds maskable bound %.4f", imp, bm.MaskableCommFraction)
	}
	if bm.OverlappedCommSeconds != 0 {
		t.Fatalf("baseline masked %v seconds without OverlapComm", bm.OverlappedCommSeconds)
	}
	if om.OverlappedCommSeconds <= 0 {
		t.Fatal("overlap build masked nothing")
	}
	// The build itself is unchanged: same cube, same answers.
	if bm.OutputRows != om.OutputRows {
		t.Fatalf("overlap changed the cube: %d vs %d rows", om.OutputRows, bm.OutputRows)
	}
	got, err := ov.Aggregate([]string{"store", "month"}, []uint32{3, 5})
	if err != nil {
		t.Fatal(err)
	}
	if want := oracle([]string{"store", "month"}, []uint32{3, 5}); got != want {
		t.Fatalf("overlapped cube answers %d, want %d", got, want)
	}
}

func TestModernHardwareFaster(t *testing.T) {
	in, _ := loadRandom(t, 2000, 7)
	old, err := Build(in, Options{Processors: 4})
	if err != nil {
		t.Fatal(err)
	}
	modern, err := Build(in, Options{Processors: 4, Hardware: ModernCluster})
	if err != nil {
		t.Fatal(err)
	}
	if modern.Metrics().SimSeconds >= old.Metrics().SimSeconds {
		t.Fatal("modern cluster not faster than the 2003 Beowulf")
	}
}

func TestMinMaxAggregates(t *testing.T) {
	in, _ := NewInput(testSchema())
	rng := rand.New(rand.NewSource(11))
	type key struct{ s, m uint32 }
	minTruth := map[key]int64{}
	maxTruth := map[key]int64{}
	for i := 0; i < 1000; i++ {
		vals := []uint32{uint32(rng.Intn(12)), uint32(rng.Intn(40)), uint32(rng.Intn(25)), uint32(rng.Intn(3))}
		m := int64(rng.Intn(1000) - 500)
		if err := in.AddRow(vals, m); err != nil {
			t.Fatal(err)
		}
		k := key{vals[1], vals[0]}
		if old, ok := minTruth[k]; !ok || m < old {
			minTruth[k] = m
		}
		if old, ok := maxTruth[k]; !ok || m > old {
			maxTruth[k] = m
		}
	}
	for _, tc := range []struct {
		agg   Aggregate
		truth map[key]int64
	}{{Min, minTruth}, {Max, maxTruth}} {
		cube, err := Build(in, Options{Processors: 4, Aggregate: tc.agg})
		if err != nil {
			t.Fatal(err)
		}
		vw, err := cube.View([]string{"store", "month"})
		if err != nil {
			t.Fatal(err)
		}
		if vw.Len() != len(tc.truth) {
			t.Fatalf("agg %v: %d groups, want %d", tc.agg, vw.Len(), len(tc.truth))
		}
		for i := 0; i < vw.Len(); i++ {
			kv, m := vw.Row(i)
			// Attributes order may be (store,month) or (month,store).
			var k key
			if vw.Attributes[0] == "store" {
				k = key{kv[0], kv[1]}
			} else {
				k = key{kv[1], kv[0]}
			}
			if tc.truth[k] != m {
				t.Fatalf("agg %v group %v = %d, want %d", tc.agg, k, m, tc.truth[k])
			}
		}
	}
}

func TestFallbackQueryRespectsOperator(t *testing.T) {
	// A Min partial cube: the fallback path (answering an
	// unmaterialized view from a superset) must combine with MIN, not
	// SUM.
	in, _ := NewInput(testSchema())
	rng := rand.New(rand.NewSource(41))
	truth := map[uint32]int64{}
	for i := 0; i < 600; i++ {
		vals := []uint32{uint32(rng.Intn(12)), uint32(rng.Intn(40)), uint32(rng.Intn(25)), uint32(rng.Intn(3))}
		m := int64(rng.Intn(1000))
		if err := in.AddRow(vals, m); err != nil {
			t.Fatal(err)
		}
		if old, ok := truth[vals[1]]; !ok || m < old {
			truth[vals[1]] = m
		}
	}
	cube, err := Build(in, Options{
		Processors:    2,
		Aggregate:     Min,
		SelectedViews: [][]string{{"store", "month"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// "store" alone is unmaterialized: answered from (store,month).
	for s, want := range truth {
		got, err := cube.Aggregate([]string{"store"}, []uint32{s})
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("min(store %d) = %d, want %d", s, got, want)
		}
	}
}

func TestIcebergOption(t *testing.T) {
	in, oracle := loadRandom(t, 2000, 51)
	cube, err := Build(in, Options{Processors: 3, MinSupport: 300})
	if err != nil {
		t.Fatal(err)
	}
	vw, err := cube.View([]string{"store"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < vw.Len(); i++ {
		key, m := vw.Row(i)
		if m < 300 {
			t.Fatalf("group %v below threshold: %d", key, m)
		}
		if want := oracle([]string{"store"}, key); m != want {
			t.Fatalf("group %v = %d, want %d", key, m, want)
		}
	}
	full, _ := Build(in, Options{Processors: 3})
	if cube.Metrics().OutputRows >= full.Metrics().OutputRows {
		t.Fatal("iceberg cube not smaller")
	}
}
