package experiments

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// testScale is small enough for CI while preserving the qualitative
// shapes the assertions check.
func testScale() Scale {
	return Scale{
		N1M: 12_000, N2M: 24_000, N10M: 48_000,
		Procs: []int{1, 2, 4, 8},
		MaxP:  8,
		Seed:  1,
	}
}

func last(pts []SpeedupPoint) SpeedupPoint { return pts[len(pts)-1] }

func TestFig5SpeedupShape(t *testing.T) {
	t.Parallel()
	res := Fig5(testScale())
	if len(res.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(res.Series))
	}
	for _, s := range res.Series {
		// Time decreases monotonically with p.
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Seconds >= s.Points[i-1].Seconds {
				t.Fatalf("n=%d: time not decreasing at p=%d (%v -> %v)",
					s.N, s.Points[i].P, s.Points[i-1].Seconds, s.Points[i].Seconds)
			}
		}
		// Meaningful speedup at the largest p.
		if sp := last(s.Points).Speedup; sp < 2 {
			t.Fatalf("n=%d: speedup at max p only %.2f", s.N, sp)
		}
		if s.OutputRows == 0 {
			t.Fatal("no cube rows")
		}
	}
	// The paper's core observation: larger inputs speed up better.
	small, large := res.Series[0], res.Series[1]
	if last(large.Points).Speedup <= last(small.Points).Speedup*0.95 {
		t.Fatalf("larger data set should not speed up worse: %v vs %v",
			last(large.Points).Speedup, last(small.Points).Speedup)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Figure 5") {
		t.Fatal("Print output malformed")
	}
}

func TestFig6PartialCubeShape(t *testing.T) {
	t.Parallel()
	res := Fig6(testScale())
	if len(res.Series) != 4 {
		t.Fatalf("want 4 series, got %d", len(res.Series))
	}
	// Sequential partial times grow (weakly) with the selected
	// percentage: a high percentage of low-dimensional views can
	// require the whole tree as intermediates, so adjacent steps may
	// tie, but 25% must be strictly cheaper than 100%.
	for i := 1; i < len(res.Series); i++ {
		if res.Series[i].SeqSeconds < res.Series[i-1].SeqSeconds*0.999 {
			t.Fatalf("seq time decreasing with selection: %d%%=%.1f vs %d%%=%.1f",
				res.Series[i].Percent, res.Series[i].SeqSeconds,
				res.Series[i-1].Percent, res.Series[i-1].SeqSeconds)
		}
	}
	if res.Series[0].SeqSeconds >= res.Series[3].SeqSeconds {
		t.Fatalf("25%% seq (%.1f) not cheaper than 100%% seq (%.1f)",
			res.Series[0].SeqSeconds, res.Series[3].SeqSeconds)
	}
	// Every selection keeps a real speedup at the largest p (paper: 25%
	// is still "more than half of optimal"). Note an honest deviation
	// recorded in EXPERIMENTS.md: in our cost model mid-range
	// selections can speed up slightly BETTER than the full cube
	// (they skip the expensive merges of the largest views), whereas
	// the paper has the full cube on top; both systems agree that
	// selections down to 25% parallelize well and that tiny selections
	// fall off.
	for _, s := range res.Series {
		if sp := last(s.Points).Speedup; sp < 1 {
			t.Fatalf("%d%% selection speedup %.2f < 1", s.Percent, sp)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "partial-cube") {
		t.Fatal("Print output malformed")
	}
}

func TestFig7GlobalBeatsLocal(t *testing.T) {
	t.Parallel()
	res := Fig7(testScale())
	// At the largest p, the global schedule tree must not lose to the
	// local trees (the paper's §2.3/§4.2 conclusion: merge-time
	// re-sorts dominate the benefit of locally optimal trees).
	g, l := last(res.Global), last(res.Local)
	if g.Seconds > l.Seconds*1.05 {
		t.Fatalf("global tree slower than local at p=%d: %.1f vs %.1f", g.P, g.Seconds, l.Seconds)
	}
	// Local mode must actually have diverged somewhere in the sweep
	// (otherwise the comparison is vacuous).
	total := 0
	for _, r := range res.Resorts {
		total += r
	}
	if total == 0 {
		t.Fatal("local-tree mode never re-sorted; trees never diverged")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "schedule trees") {
		t.Fatal("Print output malformed")
	}
}

func TestFig8SkewShape(t *testing.T) {
	t.Parallel()
	// Skew effects need enough rows for data reduction to outweigh
	// per-view overheads; run this figure at a larger n.
	sc := testScale()
	sc.N1M = 60_000
	res := Fig8(sc)
	if len(res.Points) != 4 {
		t.Fatalf("want 4 skew levels, got %d", len(res.Points))
	}
	// Data reduction: cube shrinks monotonically with skew.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].TotalRows >= res.Points[i-1].TotalRows {
			t.Fatalf("cube rows not decreasing with skew: %v", res.Points)
		}
	}
	// High skew is much faster than no skew (paper: time drops
	// significantly for alpha > 1).
	if res.Points[3].Seconds >= res.Points[0].Seconds {
		t.Fatalf("alpha=3 (%.1fs) not faster than alpha=0 (%.1fs)",
			res.Points[3].Seconds, res.Points[0].Seconds)
	}
	// Communication collapses at high skew relative to its peak.
	peak := 0.0
	for _, pt := range res.Points {
		if pt.MergeMB > peak {
			peak = pt.MergeMB
		}
	}
	if res.Points[3].MergeMB > peak*0.8 {
		t.Fatalf("alpha=3 communication %.1fMB not below peak %.1fMB", res.Points[3].MergeMB, peak)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "skew") {
		t.Fatal("Print output malformed")
	}
}

func TestFig9CardinalityShape(t *testing.T) {
	t.Parallel()
	// Cardinality effects are subtle; use a larger n and a short
	// processor sweep.
	sc := testScale()
	sc.N1M = 60_000
	sc.Procs = []int{1, 8}
	res := Fig9(sc)
	if len(res.Series) != 4 {
		t.Fatalf("want 4 mixes, got %d", len(res.Series))
	}
	a, b, c, d := res.Series[0], res.Series[1], res.Series[2], res.Series[3]
	// The sparsest mix (A, all-256) is the slowest at the largest p
	// (paper Fig 9a: "the sparser data sets require somewhat more
	// time"). B and C are close in our model; we assert only A's
	// position, the figure's headline effect.
	ta, tb, tc := last(a.Points).Seconds, last(b.Points).Seconds, last(c.Points).Seconds
	if ta <= tb || ta <= tc {
		t.Fatalf("sparsest mix not slowest: A=%.1f B=%.1f C=%.1f", ta, tb, tc)
	}
	// The "difficult input" D (skewed leading dimension) loses speedup
	// relative to B but stays useful (paper: still about half optimal).
	sb, sd := last(b.Points).Speedup, last(d.Points).Speedup
	if sd > sb*1.1 {
		t.Fatalf("difficult mix D speeds up better (%.2f) than B (%.2f)", sd, sb)
	}
	if sd < 1 {
		t.Fatalf("mix D speedup collapsed: %.2f", sd)
	}
}

func TestFig10DimensionalityShape(t *testing.T) {
	t.Parallel()
	sc := testScale()
	res := Fig10(sc)
	if len(res.Points) != 5 {
		t.Fatalf("want d=6..10, got %d points", len(res.Points))
	}
	for i, pt := range res.Points {
		if pt.D != 6+i || pt.Views != 1<<uint(6+i) {
			t.Fatalf("point %d malformed: %+v", i, pt)
		}
		if i > 0 {
			prev := res.Points[i-1]
			if pt.Seconds <= prev.Seconds {
				t.Fatalf("time not increasing with d: d=%d %.1fs vs d=%d %.1fs",
					pt.D, pt.Seconds, prev.D, prev.Seconds)
			}
			if pt.TotalRows <= prev.TotalRows {
				t.Fatal("output not growing with d")
			}
			// Time grows roughly with output size (paper: essentially
			// linear in output): the per-row time should stay within a
			// factor 4 between adjacent d.
			r1 := pt.Seconds / float64(pt.TotalRows)
			r0 := prev.Seconds / float64(prev.TotalRows)
			if r1 > r0*4 || r1 < r0/4 {
				t.Fatalf("time per output row jumped: d=%d %.3g vs d=%d %.3g", pt.D, r1, prev.D, r0)
			}
		}
	}
}

func TestFig11BalanceShape(t *testing.T) {
	t.Parallel()
	res := Fig11(testScale())
	if len(res.Series) != 3 {
		t.Fatalf("want gammas 3/5/7, got %d", len(res.Series))
	}
	// Tightening gamma may cost time but the effect is small (paper:
	// "the effect is small"): 3% at most 50% slower than 7% at max p,
	// and never faster by more than a whisker is not required — only
	// bounded degradation.
	t3 := last(res.Series[0].Points).Seconds
	t7 := last(res.Series[2].Points).Seconds
	if t3 > t7*1.5 {
		t.Fatalf("gamma=3%% (%.1fs) more than 1.5x slower than gamma=7%% (%.1fs)", t3, t7)
	}
	for _, s := range res.Series {
		if last(s.Points).Speedup < 1.5 {
			t.Fatalf("gamma=%.0f%%: speedup %.2f too low", s.GammaPct, last(s.Points).Speedup)
		}
	}
}

func TestHeadlineExpansion(t *testing.T) {
	t.Parallel()
	res := Headline(testScale())
	if len(res.Entries) != 2 {
		t.Fatalf("want 2 entries, got %d", len(res.Entries))
	}
	for _, e := range res.Entries {
		if e.CubeRows == 0 || e.Seconds <= 0 {
			t.Fatalf("empty headline entry: %+v", e)
		}
		// The cube is much larger than the input (paper: 113x at n=2M;
		// smaller inputs saturate less but still explode).
		if e.Expansion < 10 {
			t.Fatalf("n=%d: expansion only %.1fx", e.N, e.Expansion)
		}
	}
	// More input, more cube.
	if res.Entries[1].CubeRows <= res.Entries[0].CubeRows {
		t.Fatal("larger input should produce a larger cube")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Headline") {
		t.Fatal("Print output malformed")
	}
}

func TestScales(t *testing.T) {
	t.Parallel()
	d := DefaultScale()
	p := PaperScale()
	if p.N1M != 1_000_000 || p.N2M != 2_000_000 || p.N10M != 10_000_000 {
		t.Fatalf("PaperScale wrong: %+v", p)
	}
	if d.N1M >= p.N1M {
		t.Fatal("default scale should be reduced")
	}
	s := Scaled(2)
	if s.N1M != 2*d.N1M {
		t.Fatalf("Scaled(2) = %+v", s)
	}
	if viewCount(4) != 16 {
		t.Fatal("viewCount helper broken")
	}
}

// TestOverlapImprovesWithinBound is the acceptance check of the §4.1
// overlap: enabling OverlapComm must reduce SimSeconds on the default
// experiment config, and the improvement can never exceed the
// corrected MaskableCommFraction bound.
func TestOverlapImprovesWithinBound(t *testing.T) {
	t.Parallel()
	res := Overlap(testScale())
	if len(res.Points) == 0 || len(res.Skew) == 0 {
		t.Fatalf("overlap result malformed: %+v", res)
	}
	anyGain := false
	check := func(label string, base, overlap, improvement, bound float64) {
		t.Helper()
		if overlap > base*(1+1e-9) {
			t.Errorf("%s: overlap run slower (%.3f > %.3f)", label, overlap, base)
		}
		if improvement > bound+1e-9 {
			t.Errorf("%s: improvement %.4f exceeds maskable bound %.4f", label, improvement, bound)
		}
	}
	for _, pt := range res.Points {
		check(fmt.Sprintf("p=%d", pt.P), pt.BaseSeconds, pt.OverlapSeconds, pt.Improvement, pt.MaskableFraction)
		if pt.P > 1 {
			if pt.Improvement > 0.005 {
				anyGain = true
			}
			if pt.MaskedSeconds <= 0 {
				t.Errorf("p=%d: nothing masked despite overlap mode", pt.P)
			}
		} else if pt.MaskableFraction > 1e-9 {
			t.Errorf("p=1 has comm to mask: %v", pt.MaskableFraction)
		}
	}
	for _, pt := range res.Skew {
		check(fmt.Sprintf("alpha=%.1f", pt.Alpha), pt.BaseSeconds, pt.OverlapSeconds, pt.Improvement, pt.MaskableFraction)
	}
	if !anyGain {
		t.Fatal("overlap produced no measurable improvement at any p > 1")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "Overlap") {
		t.Fatal("Print malformed")
	}
}

func TestBaselineComparison(t *testing.T) {
	t.Parallel()
	sc := testScale()
	sc.N1M = 60_000
	sc.Procs = []int{4, 16}
	res := Baseline(sc)
	if len(res.Points) != 2 || res.SeqSeconds <= 0 {
		t.Fatalf("baseline malformed: %+v", res)
	}
	p16 := res.Points[1]
	// At scale the paper's architecture wins (see workpart tests for
	// the saturation analysis).
	if p16.SharedNothingSpeedup <= p16.WorkPartSpeedup {
		t.Fatalf("shared-nothing (%.2fx) should beat work partitioning (%.2fx) at p=16",
			p16.SharedNothingSpeedup, p16.WorkPartSpeedup)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "work partitioning") {
		t.Fatal("Print malformed")
	}
}

func TestFaultsTableShape(t *testing.T) {
	t.Parallel()
	res := Faults(testScale())
	if len(res.Overhead) != 4 || res.Overhead[0].Interval != 0 {
		t.Fatalf("overhead sweep malformed: %+v", res.Overhead)
	}
	base := res.Overhead[0].Seconds
	for _, pt := range res.Overhead[1:] {
		if pt.Seconds <= base {
			t.Fatalf("interval %d: checkpointing cost nothing (%.1fs vs %.1fs)",
				pt.Interval, pt.Seconds, base)
		}
		if pt.CheckpointMB <= 0 {
			t.Fatalf("interval %d: no checkpoint bytes", pt.Interval)
		}
	}
	for _, pt := range res.Recovery {
		if pt.RecoverySeconds <= 0 {
			t.Fatalf("crash at dim %d: no recovery time charged", pt.Dimension)
		}
		if pt.Seconds <= base {
			t.Fatalf("crash at dim %d: degraded build not slower than clean baseline", pt.Dimension)
		}
		if len(pt.FailedRanks) != 1 || pt.FailedRanks[0] != 1 {
			t.Fatalf("crash at dim %d: FailedRanks = %v", pt.Dimension, pt.FailedRanks)
		}
		if pt.RetriedMessages == 0 {
			t.Fatalf("crash at dim %d: injected drop not retried", pt.Dimension)
		}
	}
	// A later failure point costs at least as much recovery as an
	// earlier one (more completed views to rebalance and re-replicate).
	for i := 1; i < len(res.Recovery); i++ {
		if res.Recovery[i].RecoverySeconds < res.Recovery[i-1].RecoverySeconds*0.9 {
			t.Fatalf("recovery cost shrank sharply with later failure point: %+v", res.Recovery)
		}
	}
	if !strings.Contains(res.NoCheckpointErr, "processor 1") {
		t.Fatalf("no-checkpoint failure %q does not name the processor", res.NoCheckpointErr)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	for _, want := range []string{"checkpoint overhead", "recovery cost", "processor 1"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("printed table missing %q:\n%s", want, buf.String())
		}
	}
}

func TestServeThroughputScales(t *testing.T) {
	t.Parallel()
	sc := testScale()
	sc.Procs = []int{1, 8}
	res := Serve(sc)
	if len(res.Points) != 2 {
		t.Fatalf("want 2 points, got %d", len(res.Points))
	}
	p1, p8 := res.Points[0], res.Points[1]
	// The acceptance bar: at least 2x simulated query throughput at
	// p=8 over p=1 on the identical workload.
	if p8.Throughput < 2*p1.Throughput {
		t.Fatalf("p=8 throughput %.1f q/s < 2x p=1 %.1f q/s", p8.Throughput, p1.Throughput)
	}
	// The warm cache must actually be hitting, identically at every p
	// (the workload and planner are deterministic).
	if p1.HitRatio <= 0 || p1.HitRatio != p8.HitRatio {
		t.Fatalf("hit ratios %.2f / %.2f", p1.HitRatio, p8.HitRatio)
	}
	// The prefix index must charge strictly fewer rows than the scan.
	if res.IdxRows >= res.ScanRows || res.ScanRows == 0 {
		t.Fatalf("index probe %d rows vs scan %d rows", res.IdxRows, res.ScanRows)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "queries/s") {
		t.Fatal("Print output malformed")
	}
}
