package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/record"
)

// blob returns the canonical serialized form of a sketch.
func blob(m Mergeable) []byte { return m.AppendBinary(nil) }

func TestDistinctExactBelowThreshold(t *testing.T) {
	d := NewDistinct(64, 256)
	for i := 0; i < 200; i++ {
		d.Insert(int64(i % 50)) // 50 distinct, many duplicates
	}
	if d.fm != nil {
		t.Fatal("sketch left exact mode below threshold")
	}
	if got := d.Estimate(0); got != 50 {
		t.Fatalf("exact estimate = %v, want 50", got)
	}
}

func TestDistinctConvertsAboveThreshold(t *testing.T) {
	d := NewDistinct(64, 1024)
	n := 5000
	for i := 0; i < n; i++ {
		d.Insert(int64(i))
	}
	if d.fm == nil {
		t.Fatal("sketch stayed exact above threshold")
	}
	est := d.Estimate(0)
	if rel := math.Abs(est-float64(n)) / float64(n); rel > 0.15 {
		t.Fatalf("FM estimate %v for %d distinct (rel err %.3f)", est, n, rel)
	}
}

// TestDistinctOrderInsensitive is the determinism keystone: the same
// multiset absorbed in any insertion order, through any merge tree,
// must seal to bit-identical blobs.
func TestDistinctOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vals := make([]int64, 900)
	for i := range vals {
		vals[i] = int64(rng.Intn(400)) // straddles a threshold of 64 after split
	}

	build := func(order []int64, parts int) []byte {
		chunks := make([]*Distinct, parts)
		for i := range chunks {
			chunks[i] = NewDistinct(64, 256)
		}
		for i, v := range order {
			chunks[i%parts].Insert(v)
		}
		root := chunks[0]
		for _, c := range chunks[1:] {
			root.Merge(c)
		}
		return blob(root)
	}

	want := build(vals, 1)
	shuffled := append([]int64(nil), vals...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, parts := range []int{1, 2, 7} {
		if got := build(shuffled, parts); !bytes.Equal(got, want) {
			t.Fatalf("blob differs for %d-way merge of shuffled input", parts)
		}
	}

	// Exact-mode invariance too (small distinct set).
	small := make([]int64, 300)
	for i := range small {
		small[i] = int64(rng.Intn(40))
	}
	want = build(small, 1)
	rng.Shuffle(len(small), func(i, j int) { small[i], small[j] = small[j], small[i] })
	if got := build(small, 5); !bytes.Equal(got, want) {
		t.Fatal("exact-mode blob differs under shuffle+merge")
	}
}

func TestDistinctRoundTrip(t *testing.T) {
	for _, n := range []int{10, 500} {
		d := NewDistinct(64, 256)
		for i := 0; i < n; i++ {
			d.Insert(int64(i * 3))
		}
		b := blob(d)
		back, err := distinctFromBinary(b, 64, 256)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(blob(back), b) {
			t.Fatalf("n=%d: round-trip blob differs", n)
		}
		if back.Estimate(0) != d.Estimate(0) {
			t.Fatalf("n=%d: round-trip estimate differs", n)
		}
	}
}

func TestQCodeMonotoneContinuous(t *testing.T) {
	prev := qCode(0)
	for v := int64(1); v < 1<<14; v++ {
		c := qCode(v)
		if c < prev {
			t.Fatalf("qCode not monotone at %d", v)
		}
		if c > prev+1 {
			t.Fatalf("qCode skips a code at %d (%d -> %d)", v, prev, c)
		}
		prev = c
	}
	// Range inversion: every value lies in its code's range.
	for _, v := range []int64{0, 1, 127, 128, 255, 256, 1000, 1 << 20, 1<<62 + 12345} {
		lo, hi := qBaseRange(qCode(v))
		if uint64(v) < lo || uint64(v) > hi {
			t.Fatalf("value %d outside its bucket range [%d, %d]", v, lo, hi)
		}
	}
	if c := qCode(1<<63 - 1); c > qMaxCode {
		t.Fatalf("max value code %d exceeds qMaxCode %d", c, qMaxCode)
	}
}

func TestQuantileAccuracy(t *testing.T) {
	d := NewQuantile(4096)
	n := 50000
	for i := 0; i < n; i++ {
		d.Insert(int64(i))
	}
	for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.99, 1} {
		got := d.Estimate(q)
		want := q * float64(n-1)
		tol := 0.01*want + 2 // log-bucket half-width ~0.4%, compaction may widen
		if math.Abs(got-want) > tol {
			t.Fatalf("q=%v: estimate %v, want %v ± %v (shift %d)", q, got, want, tol, d.shift)
		}
	}
}

func TestQuantileCompactionBound(t *testing.T) {
	d := NewQuantile(32)
	for i := 0; i < 100000; i++ {
		d.Insert(int64(i * 7))
	}
	if len(d.codes) > 32 {
		t.Fatalf("histogram has %d buckets, bound 32", len(d.codes))
	}
	if d.shift == 0 {
		t.Fatal("expected compaction to raise the shift")
	}
	if d.total != 100000 {
		t.Fatalf("total = %d", d.total)
	}
	// Even heavily compacted, the median should be in the right region.
	got := d.Estimate(0.5)
	want := 0.5 * 7 * 99999
	if math.Abs(got-want)/want > 0.25 {
		t.Fatalf("compacted median %v far from %v", got, want)
	}
}

func TestQuantileOrderInsensitive(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vals := make([]int64, 3000)
	for i := range vals {
		vals[i] = int64(rng.Intn(1 << 20))
	}

	build := func(order []int64, parts, maxBuckets int) []byte {
		chunks := make([]*Quantile, parts)
		for i := range chunks {
			chunks[i] = NewQuantile(maxBuckets)
		}
		for i, v := range order {
			chunks[i%parts].Insert(v)
		}
		root := chunks[0]
		for _, c := range chunks[1:] {
			root.Merge(c)
		}
		return blob(root)
	}

	for _, maxBuckets := range []int{64, 4096} { // with and without compaction pressure
		want := build(vals, 1, maxBuckets)
		shuffled := append([]int64(nil), vals...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		for _, parts := range []int{2, 5, 16} {
			if got := build(shuffled, parts, maxBuckets); !bytes.Equal(got, want) {
				t.Fatalf("maxBuckets=%d parts=%d: blob differs", maxBuckets, parts)
			}
		}
	}
}

func TestQuantileRoundTrip(t *testing.T) {
	d := NewQuantile(128)
	for i := 0; i < 10000; i++ {
		d.Insert(int64(i * i))
	}
	b := blob(d)
	back, err := quantileFromBinary(b, 128)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob(back), b) {
		t.Fatal("round-trip blob differs")
	}
	if back.Estimate(0.9) != d.Estimate(0.9) {
		t.Fatal("round-trip estimate differs")
	}
}

// TestAggCombineSealEstimate drives the accumulators the record
// kernels fold groups into: raw words are singletons, a sealed blob
// merges into a fresh accumulator without changing, and estimates are
// served from the blobs.
func TestAggCombineSealEstimate(t *testing.T) {
	agg := Agg(record.OpDistinct)
	acc := agg.State.Open()
	for _, v := range []int64{3, 4, 5, 3} {
		acc.Absorb(v, nil)
	}
	b := acc.Seal()
	if got := Estimate(record.OpDistinct, 0, b, 0); got != 3 {
		t.Fatalf("estimate = %v, want 3 (values 3,4,5)", got)
	}
	keep := append([]byte(nil), b...)
	acc = agg.State.Open()
	acc.Absorb(0, b)
	acc.Absorb(9, nil)
	b2 := acc.Seal()
	if got := Estimate(record.OpDistinct, 0, b2, 0); got != 4 {
		t.Fatalf("merged estimate = %v, want 4", got)
	}
	if !bytes.Equal(b, keep) {
		t.Fatal("source blob changed by merge")
	}
	if got := Estimate(record.OpDistinct, 42, nil, 0); got != 1 {
		t.Fatalf("raw distinct estimate = %v", got)
	}
	if err := Check(record.OpDistinct, b2); err != nil {
		t.Fatal(err)
	}
	if err := Check(record.OpDistinct, []byte{99}); err == nil {
		t.Fatal("corrupt blob passed Check")
	}
	if a := Agg(record.OpSum); a.State != nil {
		t.Fatal("algebraic operator got a state combiner")
	}
}

// TestEstimateRawWord: a quantile row without a blob is its own value
// at every rank; Resolve serves every row and drops the state column.
func TestEstimateRawWord(t *testing.T) {
	if got := Estimate(record.OpQuantile, 123, nil, 0.5); got != 123 {
		t.Fatalf("raw quantile estimate = %v", got)
	}
	acc := Agg(record.OpQuantile).State.Open()
	for _, v := range []int64{10, 20, 30} {
		acc.Absorb(v, nil)
	}
	tb := record.FromRows(1, [][]uint32{{1}, {2}}, []int64{0, 7})
	tb.SetState(0, acc.Seal())
	Resolve(record.OpQuantile, tb, 0.5)
	if tb.Meas(0) != 20 || tb.Meas(1) != 7 || tb.State(0) != nil {
		t.Fatalf("median of {10,20,30} and raw 7 resolved to %v", tb)
	}
}

// TestStoreMemoryBounded: with the cube-wide store gone, a group's
// state is its sealed blob, and the memory bound is per blob — however
// many raw values and sealed partials a group absorbs, its blob stays
// under the fixed bound of its kind, far below the raw input.
func TestStoreMemoryBounded(t *testing.T) {
	bounds := map[record.AggOp]int{
		record.OpQuantile: 5 + 10*DefaultMaxBuckets,
		record.OpDistinct: max(5+8*DefaultExactThreshold, 1+8*DefaultFMBitmaps),
	}
	for op, bound := range bounds {
		rng := rand.New(rand.NewSource(3))
		agg := Agg(op)
		const groups, perGroup = 8, 20000
		var sealed [][]byte
		for g := 0; g < groups; g++ {
			acc := agg.State.Open()
			for i := 0; i < perGroup; i++ {
				acc.Absorb(rng.Int63n(1<<62), nil)
			}
			sealed = append(sealed, acc.Seal())
		}
		// A second level merges the sealed partials, as a parent view
		// merges its child's rows.
		root := agg.State.Open()
		for _, b := range sealed {
			root.Absorb(0, b)
		}
		sealed = append(sealed, root.Seal())
		for i, b := range sealed {
			if len(b) > bound {
				t.Fatalf("%v: blob %d is %d bytes, bound %d", op, i, len(b), bound)
			}
		}
		if raw := 8 * groups * perGroup; len(sealed[groups]) >= raw/10 {
			t.Fatalf("%v: root blob %d bytes not far below %d raw bytes", op, len(sealed[groups]), raw)
		}
		if est := Estimate(op, 0, sealed[groups], 0.5); est <= 0 {
			t.Fatalf("%v: root estimate %v", op, est)
		}
	}
}

// TestCombinerAllocationDeterminism: the same run structure processed
// twice seals bit-identical blobs, and merging per-rank partials seals
// the same blob as absorbing every raw word in one pass — the sealed
// blob per row is what stays deterministic across kernel paths.
func TestCombinerAllocationDeterminism(t *testing.T) {
	for _, op := range []record.AggOp{record.OpDistinct, record.OpQuantile} {
		agg := Agg(op)
		mint := func() [][]byte {
			var out [][]byte
			for r := 0; r < 3; r++ {
				for g := 0; g < 4; g++ {
					acc := agg.State.Open()
					acc.Absorb(int64(g), nil)
					acc.Absorb(int64(g+1), nil)
					acc.Absorb(int64(g+r+2), nil)
					out = append(out, acc.Seal())
				}
			}
			return out
		}
		a, b := mint(), mint()
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%v: blob %d differs between runs", op, i)
			}
		}
		merged, flat := agg.State.Open(), agg.State.Open()
		for _, blob := range a {
			merged.Absorb(0, blob)
		}
		for r := 0; r < 3; r++ {
			for g := 0; g < 4; g++ {
				flat.Absorb(int64(g), nil)
				flat.Absorb(int64(g+1), nil)
				flat.Absorb(int64(g+r+2), nil)
			}
		}
		if !bytes.Equal(merged.Seal(), flat.Seal()) {
			t.Fatalf("%v: merged partials and one flat pass seal different blobs", op)
		}
	}
}

// TestOpenCrossShardPanics: with shards gone, state cannot cross from
// one owner to another by handle; what an accumulator can be handed is
// a sealed blob, and a blob of another kind panics rather than merge.
func TestOpenCrossShardPanics(t *testing.T) {
	seal := func(op record.AggOp) []byte {
		acc := Agg(op).State.Open()
		acc.Absorb(1, nil)
		acc.Absorb(2, nil)
		return acc.Seal()
	}
	for _, c := range []struct{ into, from record.AggOp }{
		{record.OpDistinct, record.OpQuantile},
		{record.OpQuantile, record.OpDistinct},
	} {
		blob := seal(c.from)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%v accumulator absorbed a %v blob without panicking", c.into, c.from)
				}
			}()
			Agg(c.into).State.Open().Absorb(0, blob)
		}()
	}
}
