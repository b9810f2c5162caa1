// Command experiments regenerates the paper's evaluation (IPDPS'03 §4):
// every figure plus the headline end-to-end claims, printed as text
// tables.
//
// Usage:
//
//	experiments [-fig all|5|6|7|8|9|10|11|headline|overlap|baseline|faults|serve|ingest] [-scale default|paper|<multiplier>] [-procs 1,2,4,8,16] [-seed N]
//
// The default scale shrinks the paper's 1M/2M/10M-row data sets so the
// full suite finishes in minutes; -scale paper runs the original sizes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

// figures lists every -fig name in the order -fig all prints them.
var figures = []struct {
	name string
	run  func(experiments.Scale, io.Writer)
}{
	{"5", func(sc experiments.Scale, w io.Writer) { experiments.Fig5(sc).Print(w) }},
	{"6", func(sc experiments.Scale, w io.Writer) { experiments.Fig6(sc).Print(w) }},
	{"7", func(sc experiments.Scale, w io.Writer) { experiments.Fig7(sc).Print(w) }},
	{"8", func(sc experiments.Scale, w io.Writer) { experiments.Fig8(sc).Print(w) }},
	{"9", func(sc experiments.Scale, w io.Writer) { experiments.Fig9(sc).Print(w) }},
	{"10", func(sc experiments.Scale, w io.Writer) { experiments.Fig10(sc).Print(w) }},
	{"11", func(sc experiments.Scale, w io.Writer) { experiments.Fig11(sc).Print(w) }},
	{"headline", func(sc experiments.Scale, w io.Writer) { experiments.Headline(sc).Print(w) }},
	{"overlap", func(sc experiments.Scale, w io.Writer) { experiments.Overlap(sc).Print(w) }},
	{"baseline", func(sc experiments.Scale, w io.Writer) { experiments.Baseline(sc).Print(w) }},
	{"faults", func(sc experiments.Scale, w io.Writer) { experiments.Faults(sc).Print(w) }},
	{"serve", func(sc experiments.Scale, w io.Writer) { experiments.Serve(sc).Print(w) }},
	{"ingest", func(sc experiments.Scale, w io.Writer) { experiments.Ingest(sc).Print(w) }},
}

func main() {
	fig := flag.String("fig", "all", "figure to run: all, "+strings.Join(figureNames(), ", "))
	scaleFlag := flag.String("scale", "default", "workload scale: default, paper, or a multiplier like 4")
	procsFlag := flag.String("procs", "", "comma-separated processor sweep (default 1,2,4,8,16)")
	seed := flag.Int64("seed", 1, "workload seed")
	flag.Parse()

	if err := parseFig(*fig); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc, err := parseScale(*scaleFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	sc.Seed = *seed
	if *procsFlag != "" {
		procs, err := parseProcs(*procsFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		sc.Procs = procs
		sc.MaxP = procs[len(procs)-1]
	}

	w := os.Stdout
	for _, f := range figures {
		if *fig == "all" || *fig == f.name {
			f.run(sc, w)
			fmt.Fprintln(w)
		}
	}
}

func figureNames() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.name
	}
	return names
}

// parseFig accepts "all" or one of the figure names.
func parseFig(s string) error {
	if s == "all" || slices.Contains(figureNames(), s) {
		return nil
	}
	return fmt.Errorf("experiments: unknown -fig %q (want all, %s)", s, strings.Join(figureNames(), ", "))
}

func parseScale(s string) (experiments.Scale, error) {
	switch s {
	case "default":
		return experiments.DefaultScale(), nil
	case "paper":
		return experiments.PaperScale(), nil
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || f <= 0 {
		return experiments.Scale{}, fmt.Errorf("experiments: bad -scale %q (want default, paper, or a positive multiplier)", s)
	}
	return experiments.Scaled(f), nil
}

func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		p, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || p < 1 {
			return nil, fmt.Errorf("experiments: bad -procs entry %q", part)
		}
		if len(out) > 0 && p <= out[len(out)-1] {
			return nil, fmt.Errorf("experiments: -procs must be strictly increasing")
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: empty -procs")
	}
	return out, nil
}
