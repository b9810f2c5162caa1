package faults

import "testing"

func TestServePlanMatching(t *testing.T) {
	p := &ServePlan{
		Crashes: []ServeCrash{{Replica: 1, Query: 3}, {Replica: 1, Query: 3}},
		Stragglers: []ServeStraggler{
			{Replica: 0, FromQuery: 2, ToQuery: 4, DelaySeconds: 0.5},
			{Replica: 0, FromQuery: 3, DelaySeconds: 0.25}, // ToQuery 0 = FromQuery alone
		},
		Stalls: []ShipStall{{Replica: 2, Batch: 5, DelaySeconds: 1}},
	}
	fired := make([]bool, len(p.Crashes))

	if got := p.CrashIndex(1, 2, fired); got != -1 {
		t.Fatalf("CrashIndex(1,2) = %d, want -1", got)
	}
	if got := p.CrashIndex(0, 3, fired); got != -1 {
		t.Fatalf("crash leaked onto replica 0: index %d", got)
	}
	// Two identical crashes fire in plan order, each once.
	if got := p.CrashIndex(1, 3, fired); got != 0 {
		t.Fatalf("CrashIndex(1,3) = %d, want 0", got)
	}
	fired[0] = true
	if got := p.CrashIndex(1, 3, fired); got != 1 {
		t.Fatalf("CrashIndex(1,3) after firing 0 = %d, want 1", got)
	}
	fired[1] = true
	if got := p.CrashIndex(1, 3, fired); got != -1 {
		t.Fatalf("fired crash re-matched: index %d", got)
	}

	// Straggler delays combine over overlapping ranges.
	if d := p.StragglerDelay(0, 1); d != 0 {
		t.Fatalf("StragglerDelay(0,1) = %v, want 0", d)
	}
	if d := p.StragglerDelay(0, 2); d != 0.5 {
		t.Fatalf("StragglerDelay(0,2) = %v, want 0.5", d)
	}
	if d := p.StragglerDelay(0, 3); d != 0.75 {
		t.Fatalf("StragglerDelay(0,3) = %v, want 0.75", d)
	}
	if d := p.StragglerDelay(1, 3); d != 0 {
		t.Fatalf("straggler leaked onto replica 1: %v", d)
	}

	if d := p.StallDelay(2, 5); d != 1 {
		t.Fatalf("StallDelay(2,5) = %v, want 1", d)
	}
	if d := p.StallDelay(2, 4); d != 0 {
		t.Fatalf("StallDelay(2,4) = %v, want 0", d)
	}
}

func TestServePlanValidate(t *testing.T) {
	ok := &ServePlan{
		Crashes:    []ServeCrash{{Replica: 0, Query: 1}},
		Stragglers: []ServeStraggler{{Replica: 1, FromQuery: 1, ToQuery: 8, DelaySeconds: 2}},
		Stalls:     []ShipStall{{Replica: 1, Batch: 1, DelaySeconds: 0.1}},
	}
	if err := ok.Validate(2); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	bad := []*ServePlan{
		{Crashes: []ServeCrash{{Replica: 2, Query: 1}}},                                       // replica out of range
		{Crashes: []ServeCrash{{Replica: 0, Query: 0}}},                                       // ordinal < 1
		{Stragglers: []ServeStraggler{{Replica: 0, FromQuery: 0, DelaySeconds: 1}}},           // from-query < 1
		{Stragglers: []ServeStraggler{{Replica: 0, FromQuery: 5, ToQuery: 2}}},                // inverted range
		{Stragglers: []ServeStraggler{{Replica: 0, FromQuery: 1, DelaySeconds: -1}}},          // negative delay
		{Stragglers: []ServeStraggler{{Replica: 0, FromQuery: 1, DelaySeconds: 60}}},          // delay over cap
		{Stalls: []ShipStall{{Replica: 0, Batch: 0, DelaySeconds: 1}}},                        // batch < 1
		{Stalls: []ShipStall{{Replica: 0, Batch: 1, DelaySeconds: MaxServeDelaySeconds + 1}}}, // delay over cap
	}
	for i, p := range bad {
		if err := p.Validate(2); err == nil {
			t.Fatalf("bad plan %d accepted", i)
		}
	}
}

func TestCrashLoop(t *testing.T) {
	got := CrashLoop(3, 2, 5, 3)
	want := []ServeCrash{{Replica: 3, Query: 2}, {Replica: 3, Query: 7}, {Replica: 3, Query: 12}}
	if len(got) != len(want) {
		t.Fatalf("CrashLoop produced %d crashes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CrashLoop[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
}
