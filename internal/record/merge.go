package record

import "container/heap"

// mergeItem is a cursor into one sorted input run.
type mergeItem struct {
	t   *Table
	pos int
	src int // input index, used to break ties deterministically
}

type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	c := CompareTables(h[i].t, h[i].pos, h[j].t, h[j].pos, h[i].t.D)
	if c != 0 {
		return c < 0
	}
	return h[i].src < h[j].src
}
func (h mergeHeap) Swap(i, j int)    { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)      { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() any        { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h mergeHeap) peek() *mergeItem { return &h[0] }
func (h mergeHeap) empty() bool      { return len(h) == 0 }

// MergeSorted merges sorted tables (all with the same column count,
// each sorted over all columns) into one sorted table. Ties are broken
// by input index, making the merge deterministic.
func MergeSorted(tables []*Table) *Table {
	return mergeSortedAgg(tables, false, Agg{})
}

// mergeSortedAgg runs the packed-key loser-tree kernel when the union
// of the inputs' key plans packs, the comparison heap otherwise. Both
// produce identical output: the same global order with ties broken by
// input index.
func mergeSortedAgg(tables []*Table, aggregate bool, agg Agg) *Table {
	d := -1
	total := 0
	live := 0
	for _, t := range tables {
		if t == nil || t.Len() == 0 {
			continue
		}
		if d == -1 {
			d = t.D
		} else if t.D != d {
			panic("record: merging tables with different column counts")
		}
		total += t.Len()
		live++
	}
	if d == -1 {
		// All inputs empty: preserve column count if any input exists.
		for _, t := range tables {
			if t != nil {
				return New(t.D, 0)
			}
		}
		return New(0, 0)
	}
	if live > 1 {
		kp := KeyPlan{}
		planned := false
		for _, t := range tables {
			if t == nil || t.Len() == 0 {
				continue
			}
			p := MeasureKeyPlan(t)
			if !planned {
				kp, planned = p, true
			} else {
				kp = kp.Union(p)
			}
		}
		if kp.Packable() {
			return mergeSortedTree(tables, d, total, kp, aggregate, agg)
		}
	}
	return mergeSortedHeap(tables, d, total, aggregate, agg)
}

// mergeSortedTree is the kernel path: bulk-extract each input's packed
// keys once, then run the k-way loser tree over them. The aggregate
// duplicate test is one (or two) word compares against the last
// emitted key instead of a D-column row compare — packing is injective
// under the union plan, so key equality is row equality.
func mergeSortedTree(tables []*Table, d, total int, kp KeyPlan, aggregate bool, agg Agg) *Table {
	wide := kp.Wide()
	type stream struct {
		t      *Table
		pos    int
		hi, lo []uint64
	}
	streams := make([]stream, 0, len(tables))
	for _, t := range tables {
		if t == nil || t.Len() == 0 {
			continue
		}
		s := stream{t: t, lo: make([]uint64, t.Len())}
		if wide {
			s.hi = make([]uint64, t.Len())
		}
		kp.PackKeys(t, s.hi, s.lo)
		streams = append(streams, s)
	}
	lt := NewLoserTree(len(streams))
	for i := range streams {
		if wide {
			lt.SetKey(i, streams[i].hi[0], streams[i].lo[0])
		} else {
			lt.SetKey(i, 0, streams[i].lo[0])
		}
	}
	lt.Init()

	out := New(d, total)
	var lastHi, lastLo uint64
	have := false
	// run folds the duplicates of out's last row once one arrives.
	var run Run
	combined := false
	for {
		w := lt.Winner()
		if w < 0 {
			break
		}
		s := &streams[w]
		var kh, kl uint64
		kl = s.lo[s.pos]
		if wide {
			kh = s.hi[s.pos]
		}
		if aggregate && have && kh == lastHi && kl == lastLo {
			if !combined {
				run, combined = agg.Start(out, out.Len()-1), true
			}
			agg.Add(&run, s.t, s.pos)
		} else {
			if combined {
				out.SetRun(out.Len()-1, &run)
				combined = false
			}
			out.AppendFrom(s.t, s.pos)
			lastHi, lastLo, have = kh, kl, true
		}
		if s.pos++; s.pos >= s.t.Len() {
			lt.Close(w)
		} else if wide {
			lt.SetKey(w, s.hi[s.pos], s.lo[s.pos])
		} else {
			lt.SetKey(w, 0, s.lo[s.pos])
		}
		lt.Fix()
	}
	if combined {
		out.SetRun(out.Len()-1, &run)
	}
	return out
}

// mergeSortedHeap is the comparison path for unpackable keys (and the
// oracle the kernel path is tested against): a container/heap of row
// cursors.
func mergeSortedHeap(tables []*Table, d, total int, aggregate bool, agg Agg) *Table {
	out := New(d, total)
	h := make(mergeHeap, 0, len(tables))
	for i, t := range tables {
		if t != nil && t.Len() > 0 {
			h = append(h, mergeItem{t: t, pos: 0, src: i})
		}
	}
	heap.Init(&h)
	var run Run
	combined := false
	for !h.empty() {
		it := h.peek()
		row := it.t
		pos := it.pos
		if aggregate && out.Len() > 0 && CompareTables(out, out.Len()-1, row, pos, d) == 0 {
			if !combined {
				run, combined = agg.Start(out, out.Len()-1), true
			}
			agg.Add(&run, row, pos)
		} else {
			if combined {
				out.SetRun(out.Len()-1, &run)
				combined = false
			}
			out.AppendFrom(row, pos)
		}
		if it.pos++; it.pos >= it.t.Len() {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	if combined {
		out.SetRun(out.Len()-1, &run)
	}
	return out
}
