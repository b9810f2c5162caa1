// Snapshot: the precompute-then-serve deployment the paper motivates.
// A nightly job ingests the day's fact table from CSV, builds the cube
// on the simulated cluster, and writes a snapshot; a query server
// loads the snapshot (no rebuild) and answers OLAP queries
// from the materialized views.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	rolap "repro"
)

func main() {
	// --- Nightly build job ---------------------------------------
	facts := synthesizeCSV(30_000)
	in, err := rolap.LoadCSV(strings.NewReader(facts), rolap.CSVOptions{})
	if err != nil {
		log.Fatal(err)
	}
	cube, err := rolap.Build(in, rolap.Options{Processors: 8})
	if err != nil {
		log.Fatal(err)
	}
	met := cube.Metrics()
	fmt.Printf("nightly build: %d views, %d rows, %.1f simulated s on %d processors\n",
		len(cube.Views()), met.OutputRows, met.SimSeconds, met.Processors)

	snap, err := os.CreateTemp("", "cube-*.bin")
	if err != nil {
		log.Fatal(err)
	}
	defer os.Remove(snap.Name())
	if err := cube.Save(snap); err != nil {
		log.Fatal(err)
	}
	if err := snap.Close(); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(snap.Name())
	fmt.Printf("snapshot: %s (%.1f MB)\n", snap.Name(), float64(info.Size())/1e6)

	// --- Query server --------------------------------------------
	f, err := os.Open(snap.Name())
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	served, err := rolap.LoadCube(f)
	if err != nil {
		log.Fatal(err)
	}

	region, _ := in.CodeOf("region", "emea")
	total, err := served.Aggregate([]string{"region"}, []uint32{region})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("EMEA revenue:         %d\n", total)

	// Filtered roll-up straight off the snapshot.
	promo, _ := in.CodeOf("tier", "gold")
	vw, err := served.GroupBy([]string{"region"}, map[string]uint32{"tier": promo})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("gold-tier revenue by region:")
	var buf bytes.Buffer
	if err := vw.WriteCSV(&buf, in); err != nil {
		log.Fatal(err)
	}
	fmt.Print(buf.String())
}

// synthesizeCSV fabricates a deterministic fact table.
func synthesizeCSV(n int) string {
	regions := []string{"emea", "amer", "apac"}
	tiers := []string{"gold", "silver", "bronze"}
	var sb strings.Builder
	sb.WriteString("region,tier,product,measure\n")
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "%s,%s,p%03d,%d\n",
			regions[rng.Intn(len(regions))],
			tiers[rng.Intn(len(tiers))],
			rng.Intn(150),
			rng.Intn(500))
	}
	return sb.String()
}
