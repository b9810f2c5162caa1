package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"

	rolap "repro"
	"repro/internal/gen"
)

// workload is one set of inputs the benchmark runs. Every workload goes
// through the same pipeline; only these parameters differ.
type workload struct {
	name string
	why  string

	cards []int
	rows  int
	// skewed draws gen.HotSpec rows: Zipf 1.5/1.0/0.5 on the leading
	// dimensions, two hot keys holding half of dimension 0, and one
	// correlation.
	skewed bool
	procs  int
	// views lists the selected views of a partial cube as dimension
	// index sets; nil builds the full cube.
	views [][]int
	// fm selects the Flajolet–Martin view-size estimator.
	fm bool

	// queries is the number of distinct queries; kinds gives the shares
	// (in percent) of filtered group-bys, point aggregates and range
	// aggregates among them.
	queries int
	kinds   [3]int
	// cache is ServerOptions.CacheSize (negative disables the cache).
	cache int
	// slices > 0 makes a serve round `slices` barriered slices of [one
	// ingest batch on the served cube; perSlice queries drawn by a Zipf
	// mix over the distinct queries]. Otherwise a round replays every
	// distinct query once and the batches go to the restored cube.
	slices   int
	perSlice int

	batches   int
	batchRows int
}

const (
	kindGroupBy = iota
	kindPoint
	kindRange
)

func allDims(d int) []int {
	v := make([]int, d)
	for i := range v {
		v[i] = i
	}
	return v
}

// workloads returns the four workloads. scale multiplies row and query
// counts; 1 is the benchmark's size, the smoke test runs a fraction.
func workloads(scale float64) []*workload {
	sz := func(n int) int {
		if n = int(float64(n) * scale); n < 64 {
			n = 64
		}
		return n
	}
	d6 := []int{256, 128, 64, 32, 16, 8}

	// 32 views of d = 8: the root, the three 3-dimensional views below
	// and the 28 two-dimensional views.
	partial := [][]int{allDims(8), {0, 1, 2}, {3, 4, 5}, {5, 6, 7}}
	for i := 0; i < 8; i++ {
		for j := i + 1; j < 8; j++ {
			partial = append(partial, []int{i, j})
		}
	}

	ws := []*workload{
		{
			name:  "build-full-d8",
			why:   "d=8 full cube, output 100x input: pipesort, record kernels, colstore.Encode, allocation and persist do the work; queries do little",
			cards: gen.PaperCards(), rows: sz(36_000), procs: 4,
			queries: sz(2000), kinds: [3]int{60, 20, 20}, cache: -1,
			batches: 1,
		},
		{
			name:  "build-skew-partial",
			why:   "Zipf and hot-key rows, p=8, 32 of 256 views: samplesort shifts, mergepart Case 2/3, partialcube and estimate dominate; slowest rank sets build_sim_s",
			cards: gen.PaperCards(), rows: sz(140_000), skewed: true, procs: 8,
			views: partial, fm: true,
			queries: sz(1500), kinds: [3]int{60, 20, 20}, cache: -1,
			batches: 2,
		},
		{
			name:  "serve-scan",
			why:   "6 views of d=6, cache off: over 80% of queries are superset scans, so queryengine.Execute and colstore decode set latency and two clients contend on the engine",
			cards: d6, rows: sz(150_000), procs: 4,
			views:   [][]int{allDims(6), {0, 1, 2}, {3, 4, 5}, {0, 1}, {2, 3}, {4, 5}},
			queries: sz(1200), kinds: [3]int{75, 0, 25}, cache: -1,
			batches: 2,
		},
		{
			name:  "serve-hot-ingest",
			why:   "full d=6 cube, cache on, Zipf query mix with a batch before each of 8 slices: p50 is a cache hit, p99 a re-execution after invalidation, ingest shares the served cube",
			cards: d6, rows: sz(60_000), procs: 4,
			queries: 4096, kinds: [3]int{50, 40, 10}, cache: 256,
			slices: 8, perSlice: sz(1200),
			batches: 8,
		},
	}
	for _, w := range ws {
		pct := 100 // batches of 1 % of the rows
		if w.slices > 0 {
			pct = 200 // 0.5 %
		}
		if w.batchRows = w.rows / pct; w.batchRows < 8 {
			w.batchRows = 8
		}
	}
	return ws
}

func dimName(i int) string { return "d" + strconv.Itoa(i) }

func dimNames(idx []int) []string {
	out := make([]string, len(idx))
	for k, i := range idx {
		out[k] = dimName(i)
	}
	return out
}

// options returns the build options the workload passes to rolap.Build.
func (w *workload) options() rolap.Options {
	o := rolap.Options{Processors: w.procs, FlajoletMartin: w.fm}
	for _, v := range w.views {
		o.SelectedViews = append(o.SelectedViews, dimNames(v))
	}
	return o
}

// bound restricts one dimension to [lo, hi] (inclusive, dictionary codes).
type bound struct {
	dim    int
	lo, hi uint32
}

// query is one request, in both forms the benchmark needs: dimension
// indices and bounds for the oracle, and the argument values the public
// API takes, built once so that a timed call allocates none of them.
type query struct {
	kind   int
	group  []int   // grouped dimensions, in result column order
	bounds []bound // equality filters, the point key, or the ranges

	dims    []string          // GroupBy dims, or the view of a point/range aggregate
	filters map[string]uint32 // GroupBy
	lo, hi  []uint32          // Aggregate (lo) and RangeAggregate
}

// finish builds the argument values from the group and the bounds.
func (q *query) finish() {
	if q.kind == kindGroupBy {
		q.dims = dimNames(q.group)
		q.filters = map[string]uint32{}
		for _, b := range q.bounds {
			q.filters[dimName(b.dim)] = b.lo
		}
		return
	}
	for _, b := range q.bounds {
		q.dims = append(q.dims, dimName(b.dim))
		q.lo = append(q.lo, b.lo)
		q.hi = append(q.hi, b.hi)
	}
}

// batch is one ingest batch as Cube.Ingest takes it.
type batch struct {
	rows [][]uint32
	meas []int64
}

// inputs is everything a workload's run consumes, a pure function of
// the workload and the seed. The program sees only csv, the queries'
// argument values and the batches.
type inputs struct {
	w    *workload
	csv  []byte
	dict [][]string // expected dictionary per dimension: code -> value
	// table holds the base rows followed by every batch's rows, in
	// dictionary codes, column-wise; it is the oracle's model.
	table   table
	batches []batch
	queries []query
	// list is the order a serve round replays query indices in.
	list []int
	// answers[v][q] is query q's answer after v batches.
	answers [][]answer
	// first is the group-by every restore answers, firstAnswer its
	// answer before any batch.
	first       query
	firstAnswer answer
}

// generate builds the workload's inputs from the seed.
func generate(w *workload, seed int64) *inputs {
	d := len(w.cards)
	n := w.rows
	total := n + w.batches*w.batchRows
	spec := gen.Spec{N: total, D: d, Cards: w.cards, Seed: seed}
	row := gen.New(spec).Row
	if w.skewed {
		spec.Skews = make([]float64, d)
		copy(spec.Skews, []float64{1.5, 1.0, 0.5})
		row = gen.NewHot(gen.HotSpec{
			Base: spec, HotDim: 0, HotKeys: 2, HotMass: 0.5,
			Correlations: []gen.Correlation{{Dim: 3, Anchor: 1, Strength: 0.6}},
		}).Row
	}

	// Generator values, column-wise.
	vals := make([][]uint32, d)
	for j := range vals {
		vals[j] = make([]uint32, total)
	}
	meas := make([]int64, total)
	rng := rand.New(rand.NewSource(seed))
	buf := make([]uint32, d)
	for i := 0; i < total; i++ {
		row(i, buf)
		for j := 0; j < d; j++ {
			vals[j][i] = buf[j]
		}
		meas[i] = 1 + rng.Int63n(100)
	}

	in := &inputs{w: w, dict: make([][]string, d)}

	// The dictionary LoadCSV documents: codes by descending frequency
	// in the base rows, ties by value string ascending. A batch row's
	// value the base rows never took is replaced by a base row's, since
	// the schema is fixed at build time.
	codes := make([][]uint32, d)
	for j := 0; j < d; j++ {
		freq := make([]int, w.cards[j])
		for i := 0; i < n; i++ {
			freq[vals[j][i]]++
		}
		var seen []int
		for v, f := range freq {
			if f > 0 {
				seen = append(seen, v)
			}
		}
		sort.Slice(seen, func(a, b int) bool {
			if freq[seen[a]] != freq[seen[b]] {
				return freq[seen[a]] > freq[seen[b]]
			}
			return strconv.Itoa(seen[a]) < strconv.Itoa(seen[b])
		})
		code := make([]uint32, w.cards[j])
		in.dict[j] = make([]string, len(seen))
		for c, v := range seen {
			code[v] = uint32(c)
			in.dict[j][c] = strconv.Itoa(v)
		}
		codes[j] = make([]uint32, total)
		for i := 0; i < total; i++ {
			v := vals[j][i]
			if freq[v] == 0 {
				v = vals[j][i%n]
			}
			codes[j][i] = code[v]
		}
	}
	in.table = table{cols: codes, meas: meas, cards: make([]int, d)}
	for j := range in.dict {
		in.table.cards[j] = len(in.dict[j])
	}
	in.table.buildIndex(n)

	// CSV of the base rows: header d0..d{d-1},measure.
	out := make([]byte, 0, n*(4*d+4))
	for j := 0; j < d; j++ {
		out = append(out, dimName(j)...)
		out = append(out, ',')
	}
	out = append(out, "measure\n"...)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			out = strconv.AppendUint(out, uint64(vals[j][i]), 10)
			out = append(out, ',')
		}
		out = strconv.AppendInt(out, meas[i], 10)
		out = append(out, '\n')
	}
	in.csv = out

	for b := 0; b < w.batches; b++ {
		bt := batch{}
		for i := n + b*w.batchRows; i < n+(b+1)*w.batchRows; i++ {
			r := make([]uint32, d)
			for j := range r {
				r[j] = codes[j][i]
			}
			bt.rows = append(bt.rows, r)
			bt.meas = append(bt.meas, meas[i])
		}
		in.batches = append(in.batches, bt)
	}

	in.makeQueries(seed)
	in.answers = in.table.answer(in.queries, n, w.batches, w.batchRows)
	in.firstAnswer = in.table.answer([]query{in.first}, n, 0, 0)[0][0]
	return in
}

// makeQueries draws the distinct queries and the replay list from a
// fixed stream, so that every seed runs the same mix: the i-th query's
// kind, dimensions and range widths are the same for every seed, and
// its values are those of the base row at a fixed quantile of the rows
// in code order. Codes are frequency ranks, so that row selects about
// as much whatever the seed, and anchoring at a row makes group-bys
// and point lookups never empty. The seed decides the rows themselves
// and, with slices, the order of the replay list.
func (in *inputs) makeQueries(seed int64) {
	w := in.w
	d := len(w.cards)
	shape := rand.New(rand.NewSource(0x51a7))
	t := &in.table
	byCode := make([]int32, w.rows)
	for i := range byCode {
		byCode[i] = int32(i)
	}
	sort.Slice(byCode, func(a, b int) bool {
		for j := 0; j < d; j++ {
			if x, y := t.cols[j][byCode[a]], t.cols[j][byCode[b]]; x != y {
				return x < y
			}
		}
		return byCode[a] < byCode[b]
	})
	at := func(j, r int) bound { return bound{j, t.cols[j][r], t.cols[j][r]} }

	// Every restore answers the same group-by: d0 where d1 has its
	// most frequent value.
	in.first = query{kind: kindGroupBy, group: []int{0}, bounds: []bound{{1, 0, 0}}}
	in.first.finish()

	seen := map[string]bool{}
	// The attempt cap only matters at smoke-test sizes, where the rows
	// may not hold w.queries distinct combinations.
	for try := 0; len(in.queries) < w.queries && try < 50*w.queries; try++ {
		r := int(byCode[int(shape.Float64()*float64(w.rows))])
		perm := shape.Perm(d)
		var q query
		switch k := shape.Intn(100); {
		case k < w.kinds[0]:
			q.kind = kindGroupBy
			g := 1 + shape.Intn(2)
			f := 1 + shape.Intn(2)
			q.group = perm[:g]
			for _, j := range perm[g : g+f] {
				q.bounds = append(q.bounds, at(j, r))
			}
		case k < w.kinds[0]+w.kinds[1]:
			q.kind = kindPoint
			for _, j := range perm[:1+shape.Intn(3)] {
				q.bounds = append(q.bounds, at(j, r))
			}
		default:
			q.kind = kindRange
			for _, j := range perm[:1+shape.Intn(2)] {
				half := 1 + int(shape.Float64()*float64(t.cards[j])/8)
				lo, hi := int(t.cols[j][r])-half, int(t.cols[j][r])+half
				if lo < 0 {
					lo = 0
				}
				if hi > t.cards[j]-1 {
					hi = t.cards[j] - 1
				}
				q.bounds = append(q.bounds, bound{j, uint32(lo), uint32(hi)})
			}
		}
		q.finish()
		if k := fmt.Sprint(q.kind, q.group, q.bounds); !seen[k] {
			seen[k] = true
			in.queries = append(in.queries, q)
		}
	}

	if w.slices == 0 {
		in.list = make([]int, len(in.queries))
		for i := range in.list {
			in.list[i] = i
		}
		return
	}
	// Zipf popularity over the distinct queries: query 0 is the hottest.
	mix := gen.NewQueryMix(len(in.queries), 1.1, seed)
	in.list = make([]int, w.slices*w.perSlice)
	for i := range in.list {
		in.list[i] = mix.Key(i)
	}
}
