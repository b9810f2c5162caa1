package queryengine

import (
	"testing"

	"repro/internal/colstore"
	"repro/internal/record"
)

// sortedSlice seals a sorted 3-column slice of explicit rows.
func sortedSlice(rows [][]uint32) *colstore.Slice {
	t := record.FromRows(3, rows, nil)
	t.Sort()
	return colstore.Encode(t)
}

func TestIndexEqualityRun(t *testing.T) {
	s := sortedSlice([][]uint32{
		{0, 1, 0}, {0, 2, 1}, {1, 0, 0}, {1, 0, 2}, {1, 3, 1}, {3, 0, 0},
	})
	ix := BuildIndexSlice(s)
	if ix.Runs() != 3 {
		t.Fatalf("runs = %d, want 3", ix.Runs())
	}
	lo, hi, ops := ix.Lookup([]uint32{1}, nil)
	if lo != 2 || hi != 5 {
		t.Fatalf("run of 1 = [%d,%d), want [2,5)", lo, hi)
	}
	if ops <= 0 {
		t.Fatal("no search ops charged")
	}
	// Deeper equality prefix narrows inside the run.
	lo, hi, _ = ix.Lookup([]uint32{1, 0}, nil)
	if lo != 2 || hi != 4 {
		t.Fatalf("run of (1,0) = [%d,%d), want [2,4)", lo, hi)
	}
	// Missing leading value: empty.
	if lo, hi, _ = ix.Lookup([]uint32{2}, nil); lo != hi {
		t.Fatalf("missing value matched [%d,%d)", lo, hi)
	}
}

func TestIndexRangeLookup(t *testing.T) {
	s := sortedSlice([][]uint32{
		{0, 0, 0}, {2, 0, 0}, {2, 5, 0}, {4, 0, 0}, {7, 0, 0},
	})
	ix := BuildIndexSlice(s)
	// Range over the leading column.
	lo, hi, _ := ix.Lookup(nil, &[2]uint32{1, 4})
	if lo != 1 || hi != 4 {
		t.Fatalf("range 1..4 = [%d,%d), want [1,4)", lo, hi)
	}
	// Equality then range on the second column.
	lo, hi, _ = ix.Lookup([]uint32{2}, &[2]uint32{1, 9})
	if lo != 2 || hi != 3 {
		t.Fatalf("eq 2, range 1..9 = [%d,%d), want [2,3)", lo, hi)
	}
	// Range matching nothing.
	if lo, hi, _ = ix.Lookup(nil, &[2]uint32{8, 9}); lo != hi {
		t.Fatalf("empty range matched [%d,%d)", lo, hi)
	}
}

func TestIndexZeroDimensionSlice(t *testing.T) {
	ix := BuildIndexSlice(colstore.Encode(record.New(0, 0)))
	if lo, hi, _ := ix.Lookup([]uint32{1}, nil); lo != 0 || hi != 0 {
		t.Fatalf("zero-dim lookup = [%d,%d)", lo, hi)
	}
}

func TestCacheLRUAndStats(t *testing.T) {
	c := NewCache(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v.(int) != 1 {
		t.Fatalf("a = %v, %v", v, ok)
	}
	c.Put("c", 3) // evicts b (a was refreshed)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted out of LRU order")
	}
	// Refreshing an existing key keeps a single entry and makes it the
	// most recent: the next insert evicts c, not a.
	c.Put("a", 9)
	c.Put("d", 4)
	if v, ok := c.Get("a"); !ok || v.(int) != 9 {
		t.Fatalf("refresh lost: %v, %v", v, ok)
	}
	if _, ok := c.Get("c"); ok {
		t.Fatal("c survived eviction after a's refresh")
	}
	if v, ok := c.Get("d"); !ok || v.(int) != 4 {
		t.Fatalf("d = %v, %v", v, ok)
	}
}

func TestQueryKeyCanonical(t *testing.T) {
	a := Query{Group: []int{0, 2}, Bounds: []Bound{{Dim: 1, Lo: 2, Hi: 2}, {Dim: 3, Lo: 0, Hi: 9}}}
	b := Query{Group: []int{0, 2}, Bounds: []Bound{{Dim: 1, Lo: 2, Hi: 2}, {Dim: 3, Lo: 0, Hi: 9}}}
	if a.Key() != b.Key() {
		t.Fatalf("identical queries, different keys:\n%s\n%s", a.Key(), b.Key())
	}
	c := a
	c.Group = []int{2, 0}
	if a.Key() == c.Key() {
		t.Fatal("different output order, same key")
	}
	d := a
	d.NoIndex = true
	if a.Key() == d.Key() {
		t.Fatal("NoIndex not part of the key")
	}
}
