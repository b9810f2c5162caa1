// Package sample implements the online spaced sampling scheme of the
// paper's §2.4: while a view vj is written to disk, an array A[1..a]
// (a = 100p) is maintained so that when the write completes — and only
// then is |vj| known — A holds an evenly spaced sample of the view's
// keys. Merge–Partitions uses these samples to estimate the overlap
// sizes |v'j| with ~1/p% accuracy without re-scanning any disk-resident
// view, which is sufficient for the 1% accuracy the Case 2 / Case 3
// imbalance test needs.
//
// The implementation keeps every stride-th key and halves the sample
// (doubling the stride) whenever the array fills, which is the same
// "every second element into every second location" compaction the
// paper describes. Retained keys sit back to back in one flat array,
// so the sample costs one growing allocation, not one per key.
package sample

import (
	"fmt"

	"repro/internal/record"
)

// Online is an under-construction or finished spaced sample.
type Online struct {
	capacity int
	stride   int
	n        int      // total keys observed
	size     int      // retained keys
	width    int      // columns per key, fixed by the first key
	keys     []uint32 // retained keys, width values each
}

// NewOnline returns a sample that will retain at most a keys; a must
// be positive.
func NewOnline(a int) *Online {
	if a < 2 {
		panic(fmt.Sprintf("sample: capacity %d too small", a))
	}
	return &Online{capacity: a, stride: 1}
}

// Add observes the next key of the stream (keys must arrive in the
// view's sorted order for rank estimation to be meaningful, and all
// have the first key's width). The key is copied.
func (s *Online) Add(key []uint32) {
	if s.n%s.stride == 0 {
		if s.n == 0 {
			s.width = len(key)
		} else if len(key) != s.width {
			panic(fmt.Sprintf("sample: %d-column key in a %d-column sample", len(key), s.width))
		}
		s.keys = append(s.keys, key...)
		s.size++
		if s.size == s.capacity {
			// Keep every second key, compacting in place.
			w := s.width
			for i := 2; i < s.size; i += 2 {
				copy(s.keys[i/2*w:], s.keys[i*w:(i+1)*w])
			}
			s.size = (s.size + 1) / 2
			s.keys = s.keys[:s.size*w]
			s.stride *= 2
		}
	}
	s.n++
}

// key returns retained key i.
func (s *Online) key(i int) []uint32 { return s.keys[i*s.width : (i+1)*s.width] }

// AddTable observes every row of a table in order.
func (s *Online) AddTable(t *record.Table) {
	n := t.Len()
	if s.keys == nil {
		// Never more than min(n, a) keys are retained at once.
		s.keys = make([]uint32, 0, min(n, s.capacity)*t.D)
	}
	for i := 0; i < n; i++ {
		s.Add(t.Row(i))
	}
}

// Len returns the number of keys observed.
func (s *Online) Len() int { return s.n }

// Size returns the number of retained sample keys.
func (s *Online) Size() int { return s.size }

// Stride returns the spacing between retained keys.
func (s *Online) Stride() int { return s.stride }

// EstimateRank estimates how many observed keys are <= key (prefix
// comparison on min(len(key), len(sample key)) columns). The estimate
// is exact while the stride is 1 and within one stride otherwise.
func (s *Online) EstimateRank(key []uint32) int {
	// Samples are at stream positions 0, stride, 2*stride, ...; count
	// how many retained keys are <= key with binary search.
	lo, hi := 0, s.size
	for lo < hi {
		mid := (lo + hi) / 2
		if leqPrefix(s.key(mid), key) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	est := lo * s.stride
	if est > s.n {
		est = s.n
	}
	return est
}

// leqPrefix compares on the shorter key's width.
func leqPrefix(a, b []uint32) bool {
	k := len(a)
	if len(b) < k {
		k = len(b)
	}
	for i := 0; i < k; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return true
}

// EstimateRange estimates how many observed keys lie in (lo, hi],
// where a nil bound means unbounded on that side.
func (s *Online) EstimateRange(lo, hi []uint32) int {
	upper := s.n
	if hi != nil {
		upper = s.EstimateRank(hi)
	}
	lower := 0
	if lo != nil {
		lower = s.EstimateRank(lo)
	}
	if upper < lower {
		return 0
	}
	return upper - lower
}
