// Package extsort implements the external-memory sort used by every
// processor of the shared-nothing machine (the paper's second basic
// local disk operation, per Vitter [22]): sorted runs are formed under
// the memory budget m, then merged with a multi-way merge whose fan-in
// is bounded by m/B, giving the O((n/B) log_{m/B} (n/B)) block-transfer
// behaviour the paper cites.
//
// The sort operates on files of a simdisk.Disk and charges the owning
// processor's clock for both the block transfers (via the disk) and the
// comparison work (via costmodel.SortOps / MergeOps).
//
// Run formation sorts with record's packed-key radix kernel, and the
// multi-way merge is a loser tree on packed keys (record.LoserTree):
// per-column key widths are measured once during run formation and the
// resulting plan drives every merge pass. Keys wider than 128 bits
// take the comparison-based container/heap merge. Either way the
// simulated charges — block transfers and MergeOps — are identical;
// only wall-clock time differs.
package extsort

import (
	"container/heap"
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/record"
	"repro/internal/simdisk"
)

// Sort sorts the named file on disk d lexicographically over all its
// columns, replacing its contents, using at most the clock's configured
// memory budget for run formation and merge fan-in. It returns the
// number of merge passes performed (0 when the file fits in memory).
func Sort(d *simdisk.Disk, name string) int {
	return SortBudget(d, name, d.Clock().Params().MemoryBytes, d.Clock().Params().BlockSize)
}

// SortPlan is Sort with a caller-supplied key plan, typically built
// from the schema's (reordered) cardinalities with PlanKeyFromCards.
// A usable plan (packable, matching column count) lets run formation
// skip the per-run width measurement scan and guarantees the packed
// merge path; an unusable plan falls back to Sort's measured behaviour.
// Simulated charges are identical either way.
func SortPlan(d *simdisk.Disk, name string, kp record.KeyPlan) int {
	return sortBudget(d, name, d.Clock().Params().MemoryBytes, d.Clock().Params().BlockSize, kp, true)
}

// ProjectSort is the one way a file is re-keyed, whatever schedule asks
// for it (a partition root from raw data, a delta root from a batch, a
// Pipesort sort edge, a merge-time re-sort): read src (charged), scan
// it projecting columns cols into dst, and externally sort dst. src and
// dst may name the same file. A non-nil kp is a caller key plan as for
// SortPlan. It returns the number of merge passes.
func ProjectSort(d *simdisk.Disk, src, dst string, cols []int, kp *record.KeyPlan) int {
	t := d.MustGet(src)
	d.Clock().AddCompute(costmodel.ScanOps(t.Len()))
	d.Put(dst, t.Project(cols))
	if kp != nil {
		return SortPlan(d, dst, *kp)
	}
	return Sort(d, dst)
}

// SortBudget is Sort with an explicit memory budget and block size in
// bytes, for tests and ablations.
func SortBudget(d *simdisk.Disk, name string, memBytes, blockBytes int) int {
	return sortBudget(d, name, memBytes, blockBytes, record.KeyPlan{}, false)
}

func sortBudget(d *simdisk.Disk, name string, memBytes, blockBytes int, callerPlan record.KeyPlan, haveCaller bool) int {
	n := d.Len(name)
	if n < 0 {
		panic(fmt.Sprintf("extsort: file %q does not exist", name))
	}
	if n <= 1 {
		return 0
	}
	cols := d.Cols(name)
	rowBytes := record.RowBytes(cols)
	memRows := memBytes / rowBytes
	if memRows < 2 {
		memRows = 2
	}
	blockRows := blockBytes / rowBytes
	if blockRows < 1 {
		blockRows = 1
	}
	clk := d.Clock()
	// A caller plan is usable when it can drive the radix/packed path
	// outright; otherwise behave exactly like the measured variant.
	useCaller := haveCaller && callerPlan.Cols() == cols && callerPlan.Packable()

	if n <= memRows {
		// Fits in memory: one read, in-memory sort, one write.
		t := d.ReadRange(name, 0, n)
		clk.AddCompute(costmodel.SortOps(n))
		t.SortWithPlan(callerPlan, useCaller)
		d.Remove(name)
		d.Put(name, t)
		return 0
	}

	// Run formation. Each run's key widths are measured while it is in
	// memory — unless the caller supplied a usable plan, which skips
	// the measurement scan; the resulting plan is valid for every row
	// of the file and drives the packed-key merge passes below.
	var runs []string
	var plan record.KeyPlan
	havePlan := false
	if useCaller {
		plan, havePlan = callerPlan, true
	}
	for lo, i := 0, 0; lo < n; lo, i = lo+memRows, i+1 {
		hi := lo + memRows
		if hi > n {
			hi = n
		}
		run := d.ReadRange(name, lo, hi)
		clk.AddCompute(costmodel.SortOps(run.Len()))
		run.SortWithPlan(callerPlan, useCaller)
		if !useCaller {
			p := record.MeasureKeyPlan(run)
			if !havePlan {
				plan, havePlan = p, true
			} else {
				plan = plan.Union(p)
			}
		}
		rn := fmt.Sprintf("%s.run%d", name, i)
		d.Put(rn, run)
		runs = append(runs, rn)
	}
	d.Remove(name)
	usePlan := havePlan && plan.Packable()

	// Multi-way merge passes. Fan-in is bounded by the number of block
	// buffers that fit in memory, reserving one buffer for output.
	fanIn := memBytes/blockBytes - 1
	if fanIn < 2 {
		fanIn = 2
	}
	passes := 0
	gen := 0
	for len(runs) > 1 {
		passes++
		var next []string
		for g := 0; g*fanIn < len(runs); g++ {
			lo := g * fanIn
			hi := lo + fanIn
			if hi > len(runs) {
				hi = len(runs)
			}
			out := fmt.Sprintf("%s.merge%d.%d", name, gen, g)
			mergeRuns(d, runs[lo:hi], out, blockRows, plan, usePlan)
			next = append(next, out)
		}
		runs = next
		gen++
	}
	d.Rename(runs[0], name)
	return passes
}

// cursor streams one sorted run from disk, blockRows rows at a time.
// With a key plan installed, each refilled block's packed keys are
// bulk-extracted into the reusable key buffers.
type cursor struct {
	d         *simdisk.Disk
	name      string
	pos, end  int
	buf       *record.Table
	bufPos    int
	blockRows int
	src       int

	plan         *record.KeyPlan
	keyHi, keyLo []uint64
}

func newCursor(d *simdisk.Disk, name string, blockRows, src int, plan *record.KeyPlan) *cursor {
	c := &cursor{d: d, name: name, end: d.Len(name), blockRows: blockRows, src: src, plan: plan}
	c.fill()
	return c
}

func (c *cursor) fill() {
	if c.pos >= c.end {
		c.buf = nil
		return
	}
	hi := c.pos + c.blockRows
	if hi > c.end {
		hi = c.end
	}
	c.buf = c.d.ReadRange(c.name, c.pos, hi)
	c.bufPos = 0
	c.pos = hi
	if c.plan != nil {
		n := c.buf.Len()
		if cap(c.keyLo) < n {
			c.keyLo = make([]uint64, n)
			if c.plan.Wide() {
				c.keyHi = make([]uint64, n)
			}
		}
		c.keyLo = c.keyLo[:n]
		if c.plan.Wide() {
			c.keyHi = c.keyHi[:n]
			c.plan.PackKeys(c.buf, c.keyHi, c.keyLo)
		} else {
			c.plan.PackKeys(c.buf, nil, c.keyLo)
		}
	}
}

func (c *cursor) exhausted() bool { return c.buf == nil }

// key returns the packed key of the cursor's current row.
func (c *cursor) key() (hi, lo uint64) {
	if c.plan.Wide() {
		hi = c.keyHi[c.bufPos]
	}
	return hi, c.keyLo[c.bufPos]
}

// advance moves past the current row, refilling the buffer as needed.
func (c *cursor) advance() {
	c.bufPos++
	if c.bufPos >= c.buf.Len() {
		c.fill()
	}
}

type cursorHeap []*cursor

func (h cursorHeap) Len() int { return len(h) }
func (h cursorHeap) Less(i, j int) bool {
	c := record.CompareTables(h[i].buf, h[i].bufPos, h[j].buf, h[j].bufPos, h[i].buf.D)
	if c != 0 {
		return c < 0
	}
	return h[i].src < h[j].src
}
func (h cursorHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x any)   { *h = append(*h, x.(*cursor)) }
func (h *cursorHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// mergeRuns merges the sorted run files into out, deleting the runs.
// With usePlan it runs the packed-key loser tree; otherwise the
// comparison heap. Both orders are identical (ties break by run
// index), as is every simulated charge.
func mergeRuns(d *simdisk.Disk, runs []string, out string, blockRows int, plan record.KeyPlan, usePlan bool) {
	cols := d.Cols(runs[0])
	clk := d.Clock()
	total := 0
	for _, r := range runs {
		total += d.Len(r)
	}
	clk.AddCompute(costmodel.MergeOps(total, len(runs)))

	outBuf := record.New(cols, blockRows)
	d.Put(out, record.New(cols, 0))
	flush := func() {
		if outBuf.Len() > 0 {
			d.Append(out, outBuf)
			outBuf = record.New(cols, blockRows)
		}
	}

	if usePlan {
		cursors := make([]*cursor, len(runs))
		lt := record.NewLoserTree(len(runs))
		for i, r := range runs {
			cursors[i] = newCursor(d, r, blockRows, i, &plan)
			if !cursors[i].exhausted() {
				hi, lo := cursors[i].key()
				lt.SetKey(i, hi, lo)
			}
		}
		lt.Init()
		for {
			w := lt.Winner()
			if w < 0 {
				break
			}
			c := cursors[w]
			outBuf.AppendFrom(c.buf, c.bufPos)
			if outBuf.Len() >= blockRows {
				flush()
			}
			c.advance()
			if c.exhausted() {
				lt.Close(w)
			} else {
				hi, lo := c.key()
				lt.SetKey(w, hi, lo)
			}
			lt.Fix()
		}
	} else {
		h := make(cursorHeap, 0, len(runs))
		for i, r := range runs {
			c := newCursor(d, r, blockRows, i, nil)
			if !c.exhausted() {
				h = append(h, c)
			}
		}
		heap.Init(&h)
		for len(h) > 0 {
			c := h[0]
			outBuf.AppendFrom(c.buf, c.bufPos)
			if outBuf.Len() >= blockRows {
				flush()
			}
			c.advance()
			if c.exhausted() {
				heap.Pop(&h)
			} else {
				heap.Fix(&h, 0)
			}
		}
	}
	flush()
	for _, r := range runs {
		d.Remove(r)
	}
}
