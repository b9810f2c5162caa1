package main

import "testing"

func TestParseScale(t *testing.T) {
	if sc, err := parseScale("default"); err != nil || sc.N1M != 60_000 {
		t.Fatalf("default: %+v, %v", sc, err)
	}
	if sc, err := parseScale("paper"); err != nil || sc.N1M != 1_000_000 {
		t.Fatalf("paper: %+v, %v", sc, err)
	}
	if sc, err := parseScale("2"); err != nil || sc.N1M != 120_000 {
		t.Fatalf("multiplier: %+v, %v", sc, err)
	}
	for _, bad := range []string{"", "-1", "0", "huge"} {
		if _, err := parseScale(bad); err == nil {
			t.Errorf("parseScale(%q) should fail", bad)
		}
	}
}

func TestParseProcs(t *testing.T) {
	got, err := parseProcs("1, 2,4")
	if err != nil || len(got) != 3 || got[2] != 4 {
		t.Fatalf("parseProcs: %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "4,2", "2,2", "a"} {
		if _, err := parseProcs(bad); err == nil {
			t.Errorf("parseProcs(%q) should fail", bad)
		}
	}
}

func TestParseFig(t *testing.T) {
	for _, ok := range []string{"all", "5", "11", "headline", "serve", "ingest"} {
		if err := parseFig(ok); err != nil {
			t.Errorf("parseFig(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", "bogus", "12", "4", "Headline"} {
		if err := parseFig(bad); err == nil {
			t.Errorf("parseFig(%q) should fail", bad)
		}
	}
}
