package rolap

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

const salesCSV = `region,product,quarter,measure
east,widget,Q1,100
east,widget,Q2,150
east,gadget,Q1,80
west,widget,Q1,200
west,gadget,Q3,60
west,gadget,Q3,40
`

func TestLoadCSV(t *testing.T) {
	in, err := LoadCSV(strings.NewReader(salesCSV), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if in.Len() != 6 {
		t.Fatalf("rows = %d, want 6", in.Len())
	}
	schema := in.Schema()
	if len(schema.Dimensions) != 3 {
		t.Fatalf("dims = %v", schema.Dimensions)
	}
	// Observed cardinalities: region 2, product 2, quarter 3.
	byName := map[string]int{}
	for _, d := range schema.Dimensions {
		byName[d.Name] = d.Cardinality
	}
	if byName["region"] != 2 || byName["product"] != 2 || byName["quarter"] != 3 {
		t.Fatalf("cardinalities wrong: %v", byName)
	}
	// Dictionary round trips.
	code, ok := in.CodeOf("region", "west")
	if !ok || in.Decode("region", code) != "west" {
		t.Fatal("dictionary round trip failed")
	}
	if vals := in.DimensionValues("quarter"); len(vals) != 3 || vals[0] != "Q1" {
		t.Fatalf("DimensionValues = %v", vals)
	}
	if _, ok := in.CodeOf("region", "north"); ok {
		t.Fatal("phantom value decoded")
	}
}

func TestCSVBuildAndQueryByName(t *testing.T) {
	in, err := LoadCSV(strings.NewReader(salesCSV), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	east, _ := in.CodeOf("region", "east")
	got, err := cube.Aggregate([]string{"region"}, []uint32{east})
	if err != nil || got != 330 {
		t.Fatalf("east total = %d (%v), want 330", got, err)
	}
	q3, _ := in.CodeOf("quarter", "Q3")
	got, err = cube.Aggregate([]string{"quarter"}, []uint32{q3})
	if err != nil || got != 100 {
		t.Fatalf("Q3 total = %d (%v), want 100", got, err)
	}
}

func TestViewWriteCSV(t *testing.T) {
	in, err := LoadCSV(strings.NewReader(salesCSV), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	vw, err := cube.View([]string{"region", "product"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := vw.WriteCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+4 { // header + 4 (region,product) groups
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "measure") {
		t.Fatalf("header wrong: %s", lines[0])
	}
	if !strings.Contains(out, "east,widget,250") && !strings.Contains(out, "widget,east,250") {
		t.Fatalf("expected east/widget=250 group:\n%s", out)
	}
}

func TestLoadCSVNoMeasureColumn(t *testing.T) {
	// Without a measure column every row counts 1.
	csvData := "a,b\nx,1\nx,2\ny,1\n"
	in, err := LoadCSV(strings.NewReader(csvData), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	x, _ := in.CodeOf("a", "x")
	got, err := cube.Aggregate([]string{"a"}, []uint32{x})
	if err != nil || got != 2 {
		t.Fatalf("count(x) = %d (%v), want 2", got, err)
	}
}

func TestLoadCSVCustomDelimiterAndMeasure(t *testing.T) {
	csvData := "city;qty\nparis;5\nparis;7\n"
	in, err := LoadCSV(strings.NewReader(csvData), CSVOptions{Comma: ';', MeasureColumn: "qty"})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Build(in, Options{Processors: 1})
	if err != nil {
		t.Fatal(err)
	}
	total, _ := cube.Aggregate(nil, nil)
	if total != 12 {
		t.Fatalf("total = %d, want 12", total)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	cases := []string{
		"",                   // no header
		"measure\n5\n",       // no dimensions
		"a,measure\nx\n",     // short record is a csv error
		"a,measure\nx,nan\n", // bad measure
	}
	for i, c := range cases {
		if _, err := LoadCSV(strings.NewReader(c), CSVOptions{}); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

func TestDecodeWithoutDictionaries(t *testing.T) {
	in, _ := NewInput(testSchema())
	if got := in.Decode("store", 7); got != "7" {
		t.Fatalf("Decode = %q", got)
	}
	if in.DimensionValues("store") != nil {
		t.Fatal("expected nil values without dictionaries")
	}
	if _, ok := in.CodeOf("store", "7"); ok {
		t.Fatal("CodeOf should fail without dictionaries")
	}
}

func TestSortedNamesHelper(t *testing.T) {
	in := []string{"b", "a"}
	out := sortedNames(in)
	if out[0] != "a" || in[0] != "b" {
		t.Fatal("sortedNames must not mutate input")
	}
}

func TestIngestCSV(t *testing.T) {
	in, err := LoadCSV(strings.NewReader(salesCSV), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Columns deliberately permuted relative to the build CSV.
	batch := "quarter,measure,region,product\nQ2,70,west,widget\nQ1,30,east,gadget\n"
	im, err := cube.IngestCSV(strings.NewReader(batch), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if im.Rows != 2 {
		t.Fatalf("ingested %d rows, want 2", im.Rows)
	}
	east, _ := in.CodeOf("region", "east")
	gadget, _ := in.CodeOf("product", "gadget")
	got, err := cube.Aggregate([]string{"region", "product"}, []uint32{east, gadget})
	if err != nil {
		t.Fatal(err)
	}
	if got != 80+30 {
		t.Fatalf("east/gadget = %d after ingest, want 110", got)
	}

	// Unknown dictionary value, missing column, bad measure: the whole
	// batch is rejected and the cube stays unchanged.
	bad := []string{
		"region,product,quarter,measure\nnorth,widget,Q1,10\n", // unknown value
		"region,product,measure\neast,widget,10\n",             // missing quarter
		"region,product,quarter,measure\neast,widget,Q1,nan\n", // bad measure
		"region,product,quarter,region,measure\ne,w,Q1,e,1\n",  // repeated column
	}
	for i, b := range bad {
		if _, err := cube.IngestCSV(strings.NewReader(b), CSVOptions{}); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
	}
	if got2, _ := cube.Aggregate([]string{"region", "product"}, []uint32{east, gadget}); got2 != 110 {
		t.Fatalf("cube changed by rejected batches: %d", got2)
	}
	if cube.Pending() != 0 {
		t.Fatalf("rejected batches left %d rows pending", cube.Pending())
	}
}

func TestLoadCSVDictionaryDeterminism(t *testing.T) {
	// The same logical fact table in different physical row orders must
	// produce identical dictionaries and codes: freeze-time reordering
	// assigns codes canonically (frequency descending, value ascending),
	// not by first appearance.
	lines := []string{
		"east,widget,Q1,100",
		"east,widget,Q2,150",
		"east,gadget,Q1,80",
		"west,widget,Q1,200",
		"west,gadget,Q3,60",
		"west,gadget,Q3,40",
	}
	perms := [][]int{
		{0, 1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0},
		{2, 5, 0, 3, 1, 4},
	}
	var want *Input
	for pi, perm := range perms {
		var b strings.Builder
		b.WriteString("region,product,quarter,measure\n")
		for _, i := range perm {
			b.WriteString(lines[i])
			b.WriteByte('\n')
		}
		in, err := LoadCSV(strings.NewReader(b.String()), CSVOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = in
			continue
		}
		for _, d := range in.Schema().Dimensions {
			got := in.DimensionValues(d.Name)
			ref := want.DimensionValues(d.Name)
			if len(got) != len(ref) {
				t.Fatalf("perm %d: %s dictionary sizes differ", pi, d.Name)
			}
			for c := range got {
				if got[c] != ref[c] {
					t.Fatalf("perm %d: %s code %d = %q, want %q (order-dependent dictionary)",
						pi, d.Name, c, got[c], ref[c])
				}
			}
		}
	}
	// Codes are frequency-ordered: the hottest value gets code 0, and
	// ties break by value ascending. quarter frequencies: Q1 x3, Q3 x2,
	// Q2 x1.
	if vals := want.DimensionValues("quarter"); vals[0] != "Q1" || vals[1] != "Q3" || vals[2] != "Q2" {
		t.Fatalf("quarter codes not frequency-ordered: %v", vals)
	}
	// product ties at 3/3: value-ascending puts gadget before widget.
	if vals := want.DimensionValues("product"); vals[0] != "gadget" || vals[1] != "widget" {
		t.Fatalf("product tie-break wrong: %v", vals)
	}
}

// FuzzLoadCSV feeds arbitrary bytes to LoadCSV: every failure must be
// a returned error, never a panic. A small accepted table (at most 4
// dimensions and 64 rows) is also built at p = 2 and then ingested
// from the same bytes, which may fail only by returning an error.
func FuzzLoadCSV(f *testing.F) {
	f.Add([]byte(salesCSV))
	f.Fuzz(func(t *testing.T, data []byte) {
		in, err := LoadCSV(bytes.NewReader(data), CSVOptions{})
		if (in == nil) == (err == nil) {
			t.Fatalf("LoadCSV returned input %v and error %v", in != nil, err)
		}
		if in == nil || len(in.Schema().Dimensions) > 4 || in.Len() > 64 {
			return
		}
		cube, err := Build(in, Options{Processors: 2})
		if (cube == nil) == (err == nil) {
			t.Fatalf("Build returned cube %v and error %v", cube != nil, err)
		}
		if cube == nil {
			return
		}
		// The finest view, written and loaded back, is the same
		// relation: its grand total is the input's.
		var names []string
		for _, d := range in.Schema().Dimensions {
			names = append(names, d.Name)
		}
		vw, err := cube.View(names)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := vw.WriteCSV(&out, in); err != nil {
			t.Fatal(err)
		}
		back, err := LoadCSV(&out, CSVOptions{})
		if err != nil {
			t.Fatalf("loading the written view back: %v", err)
		}
		if got, want := back.table.TotalMeasure(), in.table.TotalMeasure(); got != want {
			t.Fatalf("grand total %d after WriteCSV -> LoadCSV, want %d", got, want)
		}
		_, _ = cube.IngestCSV(bytes.NewReader(data), CSVOptions{})
	})
}

// TestCSVRejectsRepeatedMeasureColumn: a header naming the measure
// column twice is ambiguous. Taking the second as a dimension called
// "measure" made WriteCSV emit it before the measure under the same
// name, so a round trip swapped the two columns.
func TestCSVRejectsRepeatedMeasureColumn(t *testing.T) {
	const data = "region,measure,measure\neast,7,2\nwest,9,3\n"
	if _, err := LoadCSV(strings.NewReader(data), CSVOptions{}); !errors.Is(err, ErrCSVHeader) {
		t.Fatalf("LoadCSV: error %v, want ErrCSVHeader", err)
	}
	in, err := LoadCSV(strings.NewReader(salesCSV), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cube, err := Build(in, Options{Processors: 2})
	if err != nil {
		t.Fatal(err)
	}
	batch := "region,product,quarter,measure,measure\neast,widget,Q1,5,6\n"
	if _, err := cube.IngestCSV(strings.NewReader(batch), CSVOptions{}); !errors.Is(err, ErrCSVHeader) {
		t.Fatalf("IngestCSV: error %v, want ErrCSVHeader", err)
	}
}

// TestLoadCSVEstimateHeader pins how LoadCSV reads a holistic view's
// WriteCSV output: the estimate column is not silently a dimension of
// a COUNT cube — the header is rejected unless MeasureColumn names it,
// and then the estimates load as the measure.
func TestLoadCSVEstimateHeader(t *testing.T) {
	rows, meas := holisticFacts(300, 5)
	cube := buildHolisticCube(t, rows, meas, CountDistinct)
	vw, err := cube.View([]string{"channel"})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := vw.WriteCSV(&out, cube.in); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCSV(bytes.NewReader(out.Bytes()), CSVOptions{}); !errors.Is(err, ErrCSVHeader) {
		t.Fatalf("LoadCSV of %q: error %v, want ErrCSVHeader", out.String(), err)
	}
	in, err := LoadCSV(bytes.NewReader(out.Bytes()), CSVOptions{MeasureColumn: "measure_estimate"})
	if err != nil {
		t.Fatal(err)
	}
	if dims := in.Schema().Dimensions; len(dims) != 1 || dims[0].Name != "channel" {
		t.Fatalf("loaded dimensions %v, want [channel]", dims)
	}
	var want int64
	for i := 0; i < vw.Len(); i++ {
		_, m := vw.Row(i)
		want += m
	}
	if got := in.table.TotalMeasure(); got != want {
		t.Fatalf("loaded estimates total %d, want %d", got, want)
	}
}
