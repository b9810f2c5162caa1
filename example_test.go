package rolap_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"strings"

	rolap "repro"
)

// ExampleBuild builds a tiny full cube and runs point queries.
func ExampleBuild() {
	schema := rolap.Schema{Dimensions: []rolap.Dimension{
		{Name: "city", Cardinality: 3},
		{Name: "year", Cardinality: 2},
	}}
	in, err := rolap.NewInput(schema)
	if err != nil {
		log.Fatal(err)
	}
	// (city, year, revenue)
	facts := [][3]uint32{{0, 0, 10}, {0, 1, 20}, {1, 0, 5}, {2, 1, 7}, {0, 0, 3}}
	for _, f := range facts {
		if err := in.AddRow([]uint32{f[0], f[1]}, int64(f[2])); err != nil {
			log.Fatal(err)
		}
	}
	cube, err := rolap.Build(in, rolap.Options{Processors: 2})
	if err != nil {
		log.Fatal(err)
	}
	total, _ := cube.Aggregate(nil, nil)
	city0, _ := cube.Aggregate([]string{"city"}, []uint32{0})
	pair, _ := cube.Aggregate([]string{"city", "year"}, []uint32{0, 0})
	fmt.Println(total, city0, pair)
	// Output: 45 33 13
}

// ExampleLoadCSV ingests a CSV fact table with string dimensions and
// exports an aggregated view back to CSV.
func ExampleLoadCSV() {
	const facts = `country,product,measure
de,bolt,4
de,nut,6
fr,bolt,1
`
	in, err := rolap.LoadCSV(strings.NewReader(facts), rolap.CSVOptions{})
	if err != nil {
		log.Fatal(err)
	}
	cube, err := rolap.Build(in, rolap.Options{Processors: 2})
	if err != nil {
		log.Fatal(err)
	}
	vw, err := cube.View([]string{"country"})
	if err != nil {
		log.Fatal(err)
	}
	var buf bytes.Buffer
	if err := vw.WriteCSV(&buf, in); err != nil {
		log.Fatal(err)
	}
	fmt.Print(buf.String())
	// Output:
	// country,measure
	// de,10
	// fr,1
}

// ExampleCube_GroupBy answers an ad-hoc filtered roll-up from the
// materialized views.
func ExampleCube_GroupBy() {
	schema := rolap.Schema{Dimensions: []rolap.Dimension{
		{Name: "store", Cardinality: 4},
		{Name: "promo", Cardinality: 2},
	}}
	in, _ := rolap.NewInput(schema)
	in.AddRow([]uint32{0, 1}, 10)
	in.AddRow([]uint32{0, 0}, 99)
	in.AddRow([]uint32{1, 1}, 20)
	cube, err := rolap.Build(in, rolap.Options{Processors: 2})
	if err != nil {
		log.Fatal(err)
	}
	promoSales, err := cube.GroupBy([]string{"store"}, map[string]uint32{"promo": 1})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < promoSales.Len(); i++ {
		key, m := promoSales.Row(i)
		fmt.Printf("store %d: %d\n", key[0], m)
	}
	// Output:
	// store 0: 10
	// store 1: 20
}

// ExampleCube_Do dices a group-by: sales per store over the second
// quarter. The same Query is answered by a Server or a ReplicaSet.
func ExampleCube_Do() {
	schema := rolap.Schema{Dimensions: []rolap.Dimension{
		{Name: "store", Cardinality: 4},
		{Name: "month", Cardinality: 12},
	}}
	in, _ := rolap.NewInput(schema)
	in.AddRow([]uint32{0, 2}, 50) // March: outside the range
	in.AddRow([]uint32{0, 3}, 10)
	in.AddRow([]uint32{0, 5}, 5)
	in.AddRow([]uint32{2, 4}, 20)
	in.AddRow([]uint32{3, 9}, 70) // October: outside the range
	cube, err := rolap.Build(in, rolap.Options{Processors: 2})
	if err != nil {
		log.Fatal(err)
	}
	q2, qm, err := cube.Do(context.Background(), rolap.Query{
		Group:  []string{"store"},
		Bounds: []rolap.Bound{{Dim: "month", Lo: 3, Hi: 5}},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("answered from", qm.SourceView)
	for i := 0; i < q2.Len(); i++ {
		key, m := q2.Row(i)
		fmt.Printf("store %d: %d\n", key[0], m)
	}
	// Output:
	// answered from [month store]
	// store 0: 15
	// store 2: 20
}
