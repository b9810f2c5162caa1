package rolap

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/simdisk"
)

// goldenQueryCube builds the fixed d=6 cube the query-charge pins run
// on: 3000 deterministic facts, p=4, the six views of the benchmark's
// serve-scan shape (the root, two triples, three pairs) plus the grand
// total, so most queries are superset scans.
func goldenQueryCube(t *testing.T, agg Aggregate) *Cube {
	t.Helper()
	names := []string{"a", "b", "c", "d", "e", "f"}
	cards := []int{16, 12, 9, 6, 4, 3}
	schema := Schema{}
	for j, nm := range names {
		schema.Dimensions = append(schema.Dimensions, Dimension{Name: nm, Cardinality: cards[j]})
	}
	in, err := NewInput(schema)
	if err != nil {
		t.Fatal(err)
	}
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	row := make([]uint32, len(cards))
	for i := 0; i < 3000; i++ {
		for j, c := range cards {
			// Skew the leading dimensions so runs have uneven lengths.
			v := next() % uint64(c)
			if j < 2 && next()%3 == 0 {
				v = 0
			}
			row[j] = uint32(v)
		}
		if err := in.AddRow(row, int64(next()%100)); err != nil {
			t.Fatal(err)
		}
	}
	cube, err := Build(in, Options{Processors: 4, Aggregate: agg, SelectedViews: [][]string{
		names, {"a", "b", "c"}, {"d", "e", "f"}, {"a", "b"}, {"c", "d"}, {"e", "f"}, {},
	}})
	if err != nil {
		t.Fatal(err)
	}
	return cube
}

// goldenQueries returns the fixed query list: hand-picked indexed
// lookups, full scans, scalar and grouped queries, then a
// deterministic pseudo-random mix of the same shapes.
func goldenQueries() []Query {
	qs := []Query{
		{},                             // grand total
		{Group: []string{"a"}},         // superset scan of {a,b}
		{Group: []string{"b", "a"}},    // exact view, permuted output
		{Group: []string{"f", "e"}},    // exact view, permuted output
		{Group: []string{"a", "d"}},    // root scan
		{Bounds: []Bound{{"a", 0, 0}}}, // indexed scalar
		{Group: []string{"b"}, Bounds: []Bound{{"a", 3, 3}}},     // indexed group-by
		{Group: []string{"c"}, Bounds: []Bound{{"a", 2, 9}}},     // indexed range
		{Group: []string{"a"}, Bounds: []Bound{{"b", 1, 1}}},     // residual filter only
		{Bounds: []Bound{{"a", 1, 1}, {"b", 0, 0}, {"c", 4, 7}}}, // deep prefix
		{Group: []string{"e"}, Bounds: []Bound{{"d", 5, 5}}},     // indexed on {d,e,f}
		{Group: []string{"a", "b", "c", "d", "e", "f"}},          // the whole root
		{Group: []string{"c"}, Bounds: []Bound{{"a", 15, 15}}},   // a sparse run
		{Group: []string{"d"}, Bounds: []Bound{{"a", 40, 40}}},   // a value no row has
	}
	names := []string{"a", "b", "c", "d", "e", "f"}
	cards := []uint64{16, 12, 9, 6, 4, 3}
	x := uint64(12345)
	next := func(n uint64) uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x % n
	}
	for len(qs) < 50 {
		var q Query
		used := 0
		for k := next(4); k > 0; k-- {
			j := next(6)
			if used&(1<<j) == 0 {
				used |= 1 << j
				q.Group = append(q.Group, names[j])
			}
		}
		for k := next(3); k > 0; k-- {
			j := next(6)
			if used&(1<<(8+j)) != 0 {
				continue
			}
			used |= 1 << (8 + j)
			lo := uint32(next(cards[j]))
			hi := lo
			if next(2) == 0 {
				hi = lo + uint32(next(cards[j]-uint64(lo)))
			}
			q.Bounds = append(q.Bounds, Bound{Dim: names[j], Lo: lo, Hi: hi})
		}
		qs = append(qs, q)
	}
	return qs
}

// goldenCharge is one query's pinned cost.
type goldenCharge struct {
	simBits     uint64
	bytesMoved  int64
	rowsScanned int64
}

// goldenTotals are the machine- and disk-level counters the query list
// adds on top of the build.
type goldenTotals struct {
	bytesMoved, messages, supersteps, queryPhase int64
	diskReads                                    [4]int
	diskBytesRead                                [4]int64
}

func queryTotals(m *cluster.Machine) (cluster.Stats, [4]simdisk.Stats) {
	var ds [4]simdisk.Stats
	for r := range ds {
		ds[r] = m.Proc(r).Disk().Stats()
	}
	return m.Stats(), ds
}

// TestGoldenQueryCharges pins the simulated cost of a fixed query list
// on two fixed cubes: every query's SimSeconds to the bit, its
// BytesMoved and RowsScanned, and the machine's and every disk's
// counters the list adds. Query execution may change how it runs on the
// host (goroutines, kernels, decode paths) but not one charge it bills.
func TestGoldenQueryCharges(t *testing.T) {
	for _, tc := range []struct {
		name    string
		agg     Aggregate
		queries []goldenCharge
		totals  goldenTotals
	}{
		{"sum", Sum, goldenSumCharges, goldenSumTotals},
		{"distinct", CountDistinct, goldenDistinctCharges, goldenDistinctTotals},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cube := goldenQueryCube(t, tc.agg)
			ms0, ds0 := queryTotals(cube.machine)
			var got []goldenCharge
			for _, q := range goldenQueries() {
				_, qm, err := cube.Do(context.Background(), q)
				if err != nil {
					t.Fatalf("%+v: %v", q, err)
				}
				got = append(got, goldenCharge{math.Float64bits(qm.SimSeconds), qm.BytesMoved, qm.RowsScanned})
			}
			ms1, ds1 := queryTotals(cube.machine)
			tot := goldenTotals{
				bytesMoved: ms1.BytesMoved - ms0.BytesMoved,
				messages:   ms1.Messages - ms0.Messages,
				supersteps: ms1.Supersteps - ms0.Supersteps,
				queryPhase: ms1.ByPhase["query"] - ms0.ByPhase["query"],
			}
			for r := range ds1 {
				if ds1[r].Writes != ds0[r].Writes || ds1[r].BytesWritten != ds0[r].BytesWritten {
					t.Errorf("rank %d: queries wrote to disk", r)
				}
				tot.diskReads[r] = ds1[r].Reads - ds0[r].Reads
				tot.diskBytesRead[r] = ds1[r].BytesRead - ds0[r].BytesRead
			}
			same := len(got) == len(tc.queries)
			for i := 0; same && i < len(got); i++ {
				same = got[i] == tc.queries[i]
			}
			if !same || tot != tc.totals {
				var sb strings.Builder
				for _, g := range got {
					fmt.Fprintf(&sb, "\t{%#x, %d, %d},\n", g.simBits, g.bytesMoved, g.rowsScanned)
				}
				fmt.Fprintf(&sb, "totals: %#v\n", tot)
				t.Errorf("query charges moved; got:\n%s", sb.String())
			}
		})
	}
}

// The pinned values, captured on the mutex-serialized cluster.Run query
// path (one SPMD superstep per query) before queries ran on per-query
// ledgers. The totals are deltas over the query list.
var goldenSumCharges = []goldenCharge{
	{0x3f72f22018794880, 0, 1},
	{0x3f761e39fcd0f680, 144, 192},
	{0x3f77ff9b56323c80, 2232, 192},
	{0x3f736664380de380, 108, 12},
	{0x3f8c2d3cfa066bc0, 1284, 2819},
	{0x3f83334e0b25ce00, 4, 12},
	{0x3f739f8f51ed0700, 96, 12},
	{0x3f8b684b6de78ec0, 200, 501},
	{0x3f73c148344c3800, 120, 192},
	{0x3f7377b6c5cf5800, 4, 4},
	{0x3f8316f38c7f2940, 32, 12},
	{0x3f986c37e198b6e0, 61068, 2819},
	{0x3f614232299dde00, 72, 62},
	{0x3f7b29919ece6180, 0, 0},
	{0x3f7443f9ffe0cb00, 40, 118},
	{0x3f76706497036700, 132, 2819},
	{0x3f736d2fae437580, 12, 54},
	{0x3f79bd4067cf1c00, 2032, 2819},
	{0x3f73df85e201bd00, 480, 54},
	{0x3f8afeb3fa98e300, 5408, 2819},
	{0x3f724836d076a500, 24, 363},
	{0x3f73aa9742d23780, 72, 54},
	{0x3f83f16405e3efc0, 3804, 1037},
	{0x3f77df44c9889f00, 120, 2819},
	{0x3f908934c787e960, 12912, 2819},
	{0x3f738fbf50377b00, 12, 1037},
	{0x3f74154b40c61900, 96, 24},
	{0x3f805f48bad9db00, 144, 2819},
	{0x3f7788e8716e0200, 12, 2819},
	{0x3f7e16ec55a92980, 324, 2819},
	{0x3f73b0e1dfae7b80, 72, 54},
	{0x3f76f173a035c000, 72, 2819},
	{0x3f729e124f37f680, 0, 1},
	{0x3f8c1a6281d557c0, 972, 2819},
	{0x3f76f15e26a6dd80, 696, 2819},
	{0x3f7451862f847d00, 864, 72},
	{0x3f74f8d5bf39bb00, 72, 60},
	{0x3f78e6202ff63c80, 780, 2819},
	{0x3f7369ffa30de180, 12, 54},
	{0x3f807a611a213e40, 144, 1037},
	{0x3f76f6d203ee4c00, 224, 2819},
	{0x3f73a893dd6d0280, 40, 72},
	{0x3f83348acc215600, 4, 6},
	{0x3f73babd2ac34d80, 12, 192},
	{0x3f73df85e201bd00, 480, 54},
	{0x3f77dc0a018b9c00, 2232, 192},
	{0x3f825b012d7c8f80, 8, 6},
	{0x3f73a61a5b75f200, 8, 12},
	{0x3f7e94cb53a5ef80, 1296, 2819},
	{0x3f7ebdd08593fe00, 72, 2819},
}

var goldenSumTotals = goldenTotals{bytesMoved: 99048, messages: 119, supersteps: 50, queryPhase: 99048, diskReads: [4]int{56, 54, 54, 54}, diskBytesRead: [4]int64{29982, 38552, 43559, 44571}}

var goldenDistinctCharges = []goldenCharge{
	{0x3f72f32c87f35400, 0, 1},
	{0x3f7925e11025bd00, 9890, 192},
	{0x3f7c531220bee800, 18722, 192},
	{0x3f755e209cada080, 6841, 12},
	{0x3f8e6ba5eb618d40, 17585, 2819},
	{0x3f835465ddd55dc0, 793, 12},
	{0x3f73ee3eb775cd00, 1140, 12},
	{0x3f8c36f80ec4e980, 6344, 501},
	{0x3f73833f900dd400, 1043, 192},
	{0x3f737a3b048dd980, 217, 4},
	{0x3f836ed270a5af40, 2340, 12},
	{0x3f9b560f56343f20, 62063, 2819},
	{0x3f61e41898d32000, 1037, 62},
	{0x3f7b29919ece6180, 0, 0},
	{0x3f74517b72bd0b80, 201, 118},
	{0x3f767acb7838f680, 401, 2819},
	{0x3f73a380a3288e80, 1827, 54},
	{0x3f7a4789ac66a500, 2347, 2819},
	{0x3f78a12122648380, 14320, 54},
	{0x3f8ca31e7d998900, 21161, 2819},
	{0x3f6b4c61ad6f0e00, 327, 363},
	{0x3f75763ea0a4a600, 6341, 54},
	{0x3f8688bda9435ac0, 21870, 1037},
	{0x3f7675d8744ad580, 2363, 2819},
	{0x3f92aaa4d9bea2a0, 29370, 2819},
	{0x3f739385ae553d80, 131, 1037},
	{0x3f74a49246133480, 1812, 24},
	{0x3f80ce4ead0c3d40, 4994, 2819},
	{0x3f77d66b31266900, 611, 2819},
	{0x3f7f2b742210cb80, 3955, 2819},
	{0x3f757c893d80ea00, 6341, 54},
	{0x3f76a9a52a716e00, 582, 2819},
	{0x3f72bbb9aa054c80, 0, 1},
	{0x3f8ecf083b62d780, 17161, 2819},
	{0x3f76f418154a9500, 1143, 2819},
	{0x3f7987d0ef464900, 15870, 72},
	{0x3f71bc75bc9aa580, 1085, 60},
	{0x3f79be0c6a9c8080, 2579, 2819},
	{0x3f739c141d435c80, 1723, 54},
	{0x3f81ccbbdae20e40, 8770, 1037},
	{0x3f76ac69d5dc9600, 801, 2819},
	{0x3f7473548b728e80, 3713, 72},
	{0x3f8304a4aa6ed3c0, 793, 6},
	{0x3f73e214dd87b000, 1059, 192},
	{0x3f789ad685883f80, 14320, 54},
	{0x3f7b8be220f1e800, 18722, 192},
	{0x3f8054ac29bf1600, 1610, 6},
	{0x3f73dade0787b380, 645, 12},
	{0x3f8026e9a3c81bc0, 6216, 2819},
	{0x3f7e4397af5ea780, 3229, 2819},
}

// The distinct cube's slices hold their sketch blobs, so diskBytesRead
// counts them with the rows.
var goldenDistinctTotals = goldenTotals{bytesMoved: 346408, messages: 119, supersteps: 50, queryPhase: 346408, diskReads: [4]int{56, 54, 54, 54}, diskBytesRead: [4]int64{145079, 131845, 136752, 140563}}
