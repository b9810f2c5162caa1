package sample

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/record"
)

func TestExactWhileSmall(t *testing.T) {
	s := NewOnline(100)
	for i := 0; i < 50; i++ {
		s.Add([]uint32{uint32(i)})
	}
	if s.stride != 1 || s.Size() != 50 || s.Len() != 50 {
		t.Fatalf("stride=%d size=%d len=%d", s.stride, s.Size(), s.Len())
	}
	for i := 0; i < 50; i++ {
		if got := s.EstimateRank([]uint32{uint32(i)}); got != i+1 {
			t.Fatalf("rank(%d) = %d, want %d", i, got, i+1)
		}
	}
	if got := s.EstimateRank([]uint32{999}); got != 50 {
		t.Fatalf("rank beyond end = %d", got)
	}
}

func TestCompactionKeepsSpacing(t *testing.T) {
	s := NewOnline(8)
	n := 1000
	for i := 0; i < n; i++ {
		s.Add([]uint32{uint32(i)})
	}
	if s.Len() != n {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Size() >= 8 || s.Size() < 4 {
		t.Fatalf("Size = %d, want in [4,8)", s.Size())
	}
	// Estimation error bounded by stride.
	for _, q := range []int{0, 100, 500, 999} {
		got := s.EstimateRank([]uint32{uint32(q)})
		if got < q+1-s.stride || got > q+1+s.stride {
			t.Fatalf("rank(%d) = %d (stride %d)", q, got, s.stride)
		}
	}
}

func TestEstimateRankWithDuplicates(t *testing.T) {
	s := NewOnline(1000)
	for i := 0; i < 300; i++ {
		s.Add([]uint32{uint32(i / 100)}) // 100 copies each of 0,1,2
	}
	if got := s.EstimateRank([]uint32{0}); got != 100 {
		t.Fatalf("rank(0) = %d, want 100", got)
	}
	if got := s.EstimateRank([]uint32{1}); got != 200 {
		t.Fatalf("rank(1) = %d, want 200", got)
	}
}

func TestEstimateRange(t *testing.T) {
	s := NewOnline(1000)
	for i := 0; i < 100; i++ {
		s.Add([]uint32{uint32(i)})
	}
	if got := s.EstimateRange([]uint32{10}, []uint32{20}); got != 10 {
		t.Fatalf("range (10,20] = %d, want 10", got)
	}
	if got := s.EstimateRange(nil, []uint32{20}); got != 21 {
		t.Fatalf("range (-inf,20] = %d, want 21", got)
	}
	if got := s.EstimateRange([]uint32{89}, nil); got != 10 {
		t.Fatalf("range (89,+inf) = %d, want 10", got)
	}
	if got := s.EstimateRange([]uint32{50}, []uint32{40}); got != 0 {
		t.Fatalf("inverted range = %d, want 0", got)
	}
}

func TestAddTable(t *testing.T) {
	tb := record.FromRows(2, [][]uint32{{1, 1}, {2, 2}, {3, 3}}, nil)
	s := NewOnline(10)
	s.AddTable(tb)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if got := s.EstimateRank([]uint32{2, 2}); got != 2 {
		t.Fatalf("rank = %d", got)
	}
	// Prefix comparison: a 1-column key against 2-column samples.
	if got := s.EstimateRank([]uint32{2}); got != 2 {
		t.Fatalf("prefix rank = %d", got)
	}
}

// refOnline is the per-key layout Online replaced: one slice per
// retained key. Online must estimate exactly as it does.
type refOnline struct {
	capacity, stride, n int
	keys                [][]uint32
}

func (s *refOnline) add(key []uint32) {
	if s.n%s.stride == 0 {
		s.keys = append(s.keys, append([]uint32(nil), key...))
		if len(s.keys) == s.capacity {
			half := s.keys[: 0 : len(s.keys)/2]
			for i := 0; i < len(s.keys); i += 2 {
				half = append(half, s.keys[i])
			}
			s.keys = half
			s.stride *= 2
		}
	}
	s.n++
}

func (s *refOnline) rank(key []uint32) int {
	lo, hi := 0, len(s.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if leqPrefix(s.keys[mid], key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return min(lo*s.stride, s.n)
}

func TestFlatLayoutMatchesPerKeyLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct{ capacity, width, n int }{
		{8, 3, 1000},   // many halvings
		{9, 2, 500},    // odd capacity
		{400, 4, 5000}, // the paper's a = 100p at p = 4
		{5, 0, 40},     // zero-column keys (the empty view)
		{100, 2, 60},   // never fills
	} {
		tb := record.New(c.width, c.n)
		row := make([]uint32, c.width)
		for i := 0; i < c.n; i++ {
			for j := range row {
				row[j] = uint32(rng.Intn(6))
			}
			tb.Append(row, 1)
		}
		tb.Sort()
		s, ref := NewOnline(c.capacity), &refOnline{capacity: c.capacity, stride: 1}
		for i := 0; i < c.n; i++ {
			s.Add(tb.Row(i))
			ref.add(tb.Row(i))
			if s.Size() != len(ref.keys) || s.stride != ref.stride {
				t.Fatalf("%+v after %d keys: size %d stride %d, per-key layout %d, %d",
					c, i+1, s.Size(), s.stride, len(ref.keys), ref.stride)
			}
		}
		if c.n > c.capacity && s.stride < 4 {
			t.Fatalf("%+v: stride %d, want several halvings", c, s.stride)
		}
		for k := 0; k < 200; k++ {
			probe := make([]uint32, rng.Intn(c.width+1))
			for j := range probe {
				probe[j] = uint32(rng.Intn(7))
			}
			if got, want := s.EstimateRank(probe), ref.rank(probe); got != want {
				t.Fatalf("%+v: EstimateRank(%v) = %d, per-key layout %d", c, probe, got, want)
			}
		}
	}
}

func TestAddPanicsOnWidthChange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on a key of another width")
		}
	}()
	s := NewOnline(10)
	s.Add([]uint32{1, 2})
	s.Add([]uint32{3})
}

func TestNewOnlineValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewOnline(1)
}

func TestQuickErrorWithinStride(t *testing.T) {
	f := func(seed int64, nRaw uint16, capRaw uint8) bool {
		n := int(nRaw%5000) + 1
		capacity := int(capRaw%200) + 2
		rng := rand.New(rand.NewSource(seed))
		keys := make([]uint32, n)
		for i := range keys {
			keys[i] = uint32(rng.Intn(100))
		}
		// Sort ascending (sample requires sorted stream).
		for i := 1; i < n; i++ {
			for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
				keys[j], keys[j-1] = keys[j-1], keys[j]
			}
		}
		s := NewOnline(capacity)
		for _, k := range keys {
			s.Add([]uint32{k})
		}
		// Check rank estimates for a few probes.
		for probe := uint32(0); probe < 100; probe += 17 {
			truth := 0
			for _, k := range keys {
				if k <= probe {
					truth++
				}
			}
			got := s.EstimateRank([]uint32{probe})
			if got < truth-s.stride || got > truth+s.stride {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
