// Package costmodel provides the calibrated performance model of the
// paper's experimental platform: a 16-node Beowulf cluster of 1.8 GHz
// Intel Xeon nodes with 512 MB RAM, 7200 RPM IDE disks, and a 100 Mb/s
// Ethernet switch (IPDPS'03, §4).
//
// The shared-nothing machine in internal/cluster executes the real
// algorithm on real goroutines, but the paper's figures are about a
// 2003 cluster where communication is extremely slow relative to
// computation. Each simulated processor therefore carries a Clock that
// accumulates modelled CPU, disk, and network seconds; collectives
// synchronize clocks in BSP fashion. Figures are plotted in these
// simulated seconds, so shapes (who wins, where crossovers fall) match
// the paper even though the host machine is modern hardware.
package costmodel

import "math"

// Params holds the machine constants of the modelled cluster.
type Params struct {
	// CPURate is the number of abstract record operations the CPU
	// retires per second. One comparison-and-move during sorting, one
	// aggregation step during a scan, etc., each cost O(1) record
	// operations (see the *Cost helpers).
	CPURate float64

	// DiskBandwidth is the sequential disk transfer rate in bytes/s.
	// 7200 RPM IDE drives of the era sustain roughly 25 MB/s.
	DiskBandwidth float64

	// DiskAccessTime is the fixed cost of initiating a file-level
	// operation (seek + rotational latency), in seconds.
	DiskAccessTime float64

	// BlockSize is the disk block transfer size B in bytes.
	BlockSize int

	// MemoryBytes is the per-node memory budget m available to
	// external-memory algorithms, in bytes.
	MemoryBytes int

	// NetBandwidth is the per-node link bandwidth in bytes/s. The
	// paper's switch is 100 Mb/s Ethernet: ~12.5 MB/s per node, and the
	// authors note communication is "extremely slow in comparison to
	// computation speed".
	NetBandwidth float64

	// NetLatency is the per-message software + wire latency in seconds
	// (MPI/LAM over 100 Mb Ethernet: ~100 us).
	NetLatency float64
}

// Default returns the parameters calibrated to the paper's cluster.
func Default() Params {
	return Params{
		// ~1800 cycles per record operation on the 1.8 GHz Xeon:
		// calibrated so the sequential Pipesort baseline approaches the
		// paper's implied tens-of-microseconds per output row (n=2M
		// builds a 227M-row cube in hours sequentially, per Figure 5's
		// speedup curves and the 2003 C++/LEDA implementation).
		CPURate:       1e6,
		DiskBandwidth: 25e6,
		// Raw seek+rotation is ~10ms, but the OS page cache absorbs
		// most small-file latencies; 2ms per file-level operation
		// matches streamed-write behaviour on the paper's IDE disks.
		DiskAccessTime: 0.002,
		BlockSize:      64 << 10,
		MemoryBytes:    256 << 20, // half of 512 MB usable for sort runs
		NetBandwidth:   12.5e6,
		NetLatency:     100e-6,
	}
}

// Modern returns parameters approximating a current cluster with NVMe
// storage and 10 GbE, used by ablation benches to show how the
// balance-threshold and schedule-tree tradeoffs shift when
// communication is no longer the bottleneck.
func Modern() Params {
	return Params{
		CPURate:        400e6,
		DiskBandwidth:  2e9,
		DiskAccessTime: 0.0001,
		BlockSize:      256 << 10,
		MemoryBytes:    8 << 30,
		NetBandwidth:   1.25e9,
		NetLatency:     10e-6,
	}
}

// SortOps returns the modelled record-operation count of comparison
// sorting n records: n * ceil(log2 n).
func SortOps(n int) float64 {
	if n <= 1 {
		return float64(n)
	}
	return float64(n) * math.Ceil(math.Log2(float64(n)))
}

// MergeOps returns the modelled record-operation count of a k-way merge
// of n total records: n * ceil(log2 k).
func MergeOps(n, k int) float64 {
	if n <= 0 {
		return 0
	}
	if k <= 2 {
		return float64(n)
	}
	return float64(n) * math.Ceil(math.Log2(float64(k)))
}

// ScanOps returns the modelled record-operation count of scanning and
// aggregating n records.
func ScanOps(n int) float64 { return float64(n) }

// SearchOps returns the modelled record-operation count of one binary
// search over n sorted records: ceil(log2(n+1)) comparisons.
func SearchOps(n int) float64 {
	if n <= 0 {
		return 0
	}
	return math.Ceil(math.Log2(float64(n) + 1))
}

// Clock accumulates the simulated elapsed time of one processor. The
// zero value is a clock at time zero. Clock is not safe for concurrent
// use; each simulated processor owns its clock exclusively and the
// cluster package synchronizes them only at collectives.
//
// Besides the synchronous AddComm charge, the clock has an
// overlappable-communication lane implementing the paper's §4.1
// optimization: AddCommOverlap posts communication time that runs
// concurrently with subsequent CPU and disk work. Each later
// AddCompute/AddDisk drains the pending transfer at the rate of the
// work performed, and the drained portion never reaches the elapsed
// time — it is masked, and recorded in OverlappedCommSeconds. Whatever
// is still in flight when SettleComm is called (the next barrier) is
// charged as ordinary elapsed time. commSeconds always records the
// full transfer time, masked or not, so CommSeconds remains the upper
// bound of the optimization.
type Clock struct {
	p       Params
	seconds float64

	// Component breakdown, for the figures and for the §4.1
	// overlap-analysis metric.
	cpuSeconds  float64
	diskSeconds float64
	commSeconds float64

	// Overlappable-communication lane state.
	pendingComm    float64
	overlappedComm float64

	// slowdown multiplies local (CPU and disk) work time; > 1 models a
	// straggling processor. Zero means no slowdown (factor 1).
	slowdown float64
}

// NewClock returns a clock at time zero using the given machine
// parameters.
func NewClock(p Params) *Clock { return &Clock{p: p} }

// Params returns the machine parameters the clock charges against.
func (c *Clock) Params() Params { return c.p }

// Seconds returns the simulated time elapsed on this processor.
func (c *Clock) Seconds() float64 { return c.seconds }

// CPUSeconds returns the accumulated compute component.
func (c *Clock) CPUSeconds() float64 { return c.cpuSeconds }

// DiskSeconds returns the accumulated disk component.
func (c *Clock) DiskSeconds() float64 { return c.diskSeconds }

// CommSeconds returns the accumulated communication component,
// including any communication that was overlapped with computation.
func (c *Clock) CommSeconds() float64 { return c.commSeconds }

// OverlappedCommSeconds returns the communication time that was masked
// by concurrent CPU or disk work via the overlap lane.
func (c *Clock) OverlappedCommSeconds() float64 { return c.overlappedComm }

// drain overlaps dt seconds of local work with any in-flight
// communication: up to dt seconds of the pending transfer complete
// concurrently and are masked.
func (c *Clock) drain(dt float64) {
	if c.pendingComm <= 0 {
		return
	}
	ov := dt
	if c.pendingComm < ov {
		ov = c.pendingComm
	}
	c.pendingComm -= ov
	c.overlappedComm += ov
}

// SetSlowdown sets the straggler factor applied to subsequent local
// (CPU and disk) work; factor 1 restores full speed. Communication is
// unaffected: the network link is shared, only the node is degraded.
func (c *Clock) SetSlowdown(factor float64) {
	if factor < 1 {
		panic("costmodel: slowdown factor < 1")
	}
	c.slowdown = factor
}

func (c *Clock) slow() float64 {
	if c.slowdown > 1 {
		return c.slowdown
	}
	return 1
}

// AddCompute charges ops abstract record operations of CPU time.
func (c *Clock) AddCompute(ops float64) {
	dt := ops / c.p.CPURate * c.slow()
	c.seconds += dt
	c.cpuSeconds += dt
	c.drain(dt)
}

// AddDisk charges a sequential transfer of the given number of bytes,
// rounded up to whole blocks, plus one access latency.
func (c *Clock) AddDisk(bytes int) {
	if bytes < 0 {
		panic("costmodel: negative disk transfer")
	}
	blocks := (bytes + c.p.BlockSize - 1) / c.p.BlockSize
	dt := (c.p.DiskAccessTime + float64(blocks*c.p.BlockSize)/c.p.DiskBandwidth) * c.slow()
	c.seconds += dt
	c.diskSeconds += dt
	c.drain(dt)
}

// AddComm charges h-relation communication time for a superstep in
// which this processor's maximum of sent and received bytes is h and
// msgs point-to-point messages were involved.
func (c *Clock) AddComm(h int, msgs int) {
	dt := float64(h)/c.p.NetBandwidth + float64(msgs)*c.p.NetLatency
	c.seconds += dt
	c.commSeconds += dt
}

// AddCommOverlap posts the same charge as AddComm on the overlap lane:
// the transfer proceeds concurrently with subsequent AddCompute and
// AddDisk work until SettleComm.
func (c *Clock) AddCommOverlap(h int, msgs int) {
	dt := float64(h)/c.p.NetBandwidth + float64(msgs)*c.p.NetLatency
	c.commSeconds += dt
	c.pendingComm += dt
}

// AddCommDelay charges dt seconds of pure communication waiting time
// (retransmission backoff, failure-detection timeouts). The processor
// is blocked on the network, so the time lands on both the elapsed and
// communication components.
func (c *Clock) AddCommDelay(dt float64) {
	if dt < 0 {
		panic("costmodel: negative comm delay")
	}
	c.seconds += dt
	c.commSeconds += dt
}

// SettleComm blocks on any in-flight overlappable communication,
// charging the unmasked remainder as elapsed time. Collectives call it
// before every barrier: data posted in a superstep must have fully
// arrived before the next superstep can proceed.
func (c *Clock) SettleComm() {
	c.seconds += c.pendingComm
	c.pendingComm = 0
}

// AdvanceTo moves the clock forward to time t (a barrier
// synchronization); it never moves backwards. The waiting time is not
// attributed to any component.
func (c *Clock) AdvanceTo(t float64) {
	if t > c.seconds {
		c.seconds = t
	}
}
