package costmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSortOps(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{1, 1},
		{2, 2},
		{8, 24},
		{9, 36}, // ceil(log2 9) = 4
	}
	for _, c := range cases {
		if got := SortOps(c.n); got != c.want {
			t.Errorf("SortOps(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMergeOps(t *testing.T) {
	if got := MergeOps(100, 2); got != 100 {
		t.Errorf("MergeOps(100,2) = %v, want 100", got)
	}
	if got := MergeOps(100, 8); got != 300 {
		t.Errorf("MergeOps(100,8) = %v, want 300", got)
	}
	if got := MergeOps(0, 16); got != 0 {
		t.Errorf("MergeOps(0,16) = %v, want 0", got)
	}
}

func TestClockComponents(t *testing.T) {
	p := Default()
	c := NewClock(p)
	c.AddCompute(p.CPURate) // exactly 1 second of CPU
	if math.Abs(c.CPUSeconds()-1) > 1e-12 {
		t.Fatalf("CPUSeconds = %v, want 1", c.CPUSeconds())
	}
	c.AddDisk(p.BlockSize) // one block
	wantDisk := p.DiskAccessTime + float64(p.BlockSize)/p.DiskBandwidth
	if math.Abs(c.DiskSeconds()-wantDisk) > 1e-12 {
		t.Fatalf("DiskSeconds = %v, want %v", c.DiskSeconds(), wantDisk)
	}
	c.AddComm(int(p.NetBandwidth), 0) // 1 second of wire time
	if math.Abs(c.CommSeconds()-1) > 1e-12 {
		t.Fatalf("CommSeconds = %v, want 1", c.CommSeconds())
	}
	sum := c.CPUSeconds() + c.DiskSeconds() + c.CommSeconds()
	if math.Abs(c.Seconds()-sum) > 1e-12 {
		t.Fatalf("Seconds = %v, want component sum %v", c.Seconds(), sum)
	}
}

func TestOverlapLaneMasksCommBehindWork(t *testing.T) {
	p := Default()
	c := NewClock(p)
	c.AddCommOverlap(int(p.NetBandwidth), 0) // 1 second posted, in flight
	if c.Seconds() != 0 {
		t.Fatalf("posted comm advanced the clock to %v", c.Seconds())
	}
	if math.Abs(c.CommSeconds()-1) > 1e-12 {
		t.Fatalf("CommSeconds = %v, want full 1s even while pending", c.CommSeconds())
	}
	c.AddCompute(p.CPURate / 4) // 0.25 s of work drains 0.25 s of comm
	if math.Abs(c.OverlappedCommSeconds()-0.25) > 1e-12 {
		t.Fatalf("OverlappedCommSeconds = %v, want 0.25", c.OverlappedCommSeconds())
	}
	if math.Abs(c.pendingComm-0.75) > 1e-12 {
		t.Fatalf("PendingCommSeconds = %v, want 0.75", c.pendingComm)
	}
	c.SettleComm()                         // residual 0.75 s becomes elapsed time
	if math.Abs(c.Seconds()-1.0) > 1e-12 { // 0.25 compute + 0.75 residual
		t.Fatalf("Seconds = %v, want 1.0", c.Seconds())
	}
	if c.pendingComm != 0 {
		t.Fatalf("pending %v after settle", c.pendingComm)
	}
	// Total elapsed is 0.25 s cheaper than the synchronous 1.25 s.
	if math.Abs(c.OverlappedCommSeconds()-0.25) > 1e-12 {
		t.Fatalf("settle changed the overlapped total to %v", c.OverlappedCommSeconds())
	}
}

func TestOverlapLaneFullyMasked(t *testing.T) {
	p := Default()
	c := NewClock(p)
	c.AddCommOverlap(int(p.NetBandwidth)/2, 0) // 0.5 s in flight
	c.AddDisk(64 << 20)                        // plenty of disk time
	c.SettleComm()
	if math.Abs(c.OverlappedCommSeconds()-0.5) > 1e-12 {
		t.Fatalf("OverlappedCommSeconds = %v, want 0.5", c.OverlappedCommSeconds())
	}
	// Fully masked: elapsed time is the disk time alone.
	if math.Abs(c.Seconds()-c.DiskSeconds()) > 1e-12 {
		t.Fatalf("Seconds = %v, want disk-only %v", c.Seconds(), c.DiskSeconds())
	}
}

func TestClockDiskRoundsUpToBlocks(t *testing.T) {
	p := Default()
	c := NewClock(p)
	c.AddDisk(1) // one byte still moves one block
	want := p.DiskAccessTime + float64(p.BlockSize)/p.DiskBandwidth
	if math.Abs(c.Seconds()-want) > 1e-12 {
		t.Fatalf("Seconds = %v, want %v", c.Seconds(), want)
	}
}

func TestAdvanceToNeverGoesBack(t *testing.T) {
	c := NewClock(Default())
	c.AddCompute(1e6)
	before := c.Seconds()
	c.AdvanceTo(before / 2)
	if c.Seconds() != before {
		t.Fatal("AdvanceTo moved the clock backwards")
	}
	c.AdvanceTo(before * 2)
	if c.Seconds() != before*2 {
		t.Fatalf("AdvanceTo did not advance: %v", c.Seconds())
	}
}

func TestClockMonotone(t *testing.T) {
	f := func(ops uint16, bytes uint16, h uint16) bool {
		c := NewClock(Default())
		prev := c.Seconds()
		c.AddCompute(float64(ops))
		if c.Seconds() < prev {
			return false
		}
		prev = c.Seconds()
		c.AddDisk(int(bytes))
		if c.Seconds() < prev {
			return false
		}
		prev = c.Seconds()
		c.AddComm(int(h), 1)
		return c.Seconds() >= prev
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestModernDominatesDefault(t *testing.T) {
	d, m := Default(), Modern()
	if m.CPURate <= d.CPURate || m.DiskBandwidth <= d.DiskBandwidth ||
		m.NetBandwidth <= d.NetBandwidth || m.DiskAccessTime >= d.DiskAccessTime ||
		m.NetLatency >= d.NetLatency {
		t.Fatal("Modern params must dominate the 2003 defaults componentwise")
	}
}

func TestDefaultCalibration(t *testing.T) {
	// The calibration anchor: ~39 us of CPU per record operation-heavy
	// output row implies a CPU rate of a few million record ops/s on
	// the 1.8 GHz Xeon; sanity-check the order of magnitude so an
	// accidental edit doesn't silently shift every figure.
	d := Default()
	if d.CPURate < 5e5 || d.CPURate > 5e7 {
		t.Fatalf("CPURate %v outside calibrated order of magnitude", d.CPURate)
	}
	if d.NetBandwidth != 12.5e6 {
		t.Fatalf("NetBandwidth %v; the paper's switch is 100 Mb/s", d.NetBandwidth)
	}
}
