package sketch

import (
	"fmt"
	"math/bits"
	"sort"
)

// qMantBits is the mantissa width of the log-quantized bucket code:
// values below 2^(qMantBits+1)-ish are exact, larger values are
// bucketed with 2^-qMantBits relative granularity (~0.4% half-width).
const qMantBits = 7

// qMaxCode is the largest base bucket code (e=63, full mantissa).
const qMaxCode = (63-(qMantBits-1))<<qMantBits + (1<<qMantBits - 1)

// qCode maps a raw value to its base bucket code: identity below 128,
// then floating-point-style (exponent, 7-bit mantissa). The mapping is
// monotone and continuous (qCode(127)=127, qCode(128)=128), so sorted
// codes preserve value order.
func qCode(v int64) uint16 {
	u := uint64(v)
	if u < 1<<qMantBits {
		return uint16(u)
	}
	e := bits.Len64(u) - 1
	m := (u >> (uint(e) - qMantBits)) & (1<<qMantBits - 1)
	return uint16((e-(qMantBits-1))<<qMantBits) + uint16(m)
}

// qBaseRange returns the half-open value range [lo, hi] a base code
// covers (inverse of qCode).
func qBaseRange(c uint16) (lo, hi uint64) {
	if c < 1<<qMantBits {
		return uint64(c), uint64(c)
	}
	e := uint(c>>qMantBits) + qMantBits - 1
	m := uint64(c & (1<<qMantBits - 1))
	lo = (1<<qMantBits + m) << (e - qMantBits)
	hi = lo + 1<<(e-qMantBits) - 1
	return lo, hi
}

// qRep returns the representative value (range midpoint) of ladder
// code c at the given resolution shift.
func qRep(c uint16, shift uint8) float64 {
	first := uint16(uint32(c) << shift)
	last := uint32(c)<<shift + (1<<shift - 1)
	if last > qMaxCode {
		last = qMaxCode
	}
	lo, _ := qBaseRange(first)
	_, hi := qBaseRange(uint16(last))
	return float64(lo) + float64(hi-lo)/2
}

// Quantile is a mergeable quantile sketch: a histogram over
// log-quantized buckets with a KLL-style compaction ladder. When the
// histogram exceeds maxBuckets, the resolution shift increments —
// adjacent bucket pairs merge — and repeats until it fits. The final
// (shift, histogram) is a pure function of the absorbed multiset: the
// shift settles at the smallest resolution whose distinct-bucket count
// fits, which no insertion or merge order can change (bucket counts
// are monotone under absorption). Value relative error is bounded by
// the bucket half-width, ~2^(shift-8) for large values and shift 0
// error ~0.4%.
type Quantile struct {
	maxBuckets int
	shift      uint8
	codes      []uint16
	counts     []int64
	total      int64
}

// NewQuantile returns an empty sketch bounded to maxBuckets histogram
// buckets.
func NewQuantile(maxBuckets int) *Quantile {
	if maxBuckets < 1 {
		panic("sketch: quantile bucket bound must be positive")
	}
	return &Quantile{maxBuckets: maxBuckets}
}

// Insert implements Mergeable.
func (d *Quantile) Insert(v int64) {
	c := qCode(v) >> d.shift
	i := sort.Search(len(d.codes), func(i int) bool { return d.codes[i] >= c })
	if i < len(d.codes) && d.codes[i] == c {
		d.counts[i]++
	} else {
		d.codes = append(d.codes, 0)
		copy(d.codes[i+1:], d.codes[i:])
		d.codes[i] = c
		d.counts = append(d.counts, 0)
		copy(d.counts[i+1:], d.counts[i:])
		d.counts[i] = 1
	}
	d.total++
	for len(d.codes) > d.maxBuckets {
		d.compactOnce()
	}
}

// compactOnce halves the resolution: shift++, adjacent bucket pairs
// sharing a parent code merge.
func (d *Quantile) compactOnce() {
	d.shift++
	w := 0
	for i := 0; i < len(d.codes); i++ {
		c := d.codes[i] >> 1
		if w > 0 && d.codes[w-1] == c {
			d.counts[w-1] += d.counts[i]
			continue
		}
		d.codes[w] = c
		d.counts[w] = d.counts[i]
		w++
	}
	d.codes = d.codes[:w]
	d.counts = d.counts[:w]
}

// Merge implements Mergeable; o must be a *Quantile with the same
// bucket bound and is not modified.
func (d *Quantile) Merge(o Mergeable) {
	od, ok := o.(*Quantile)
	if !ok {
		panic(fmt.Sprintf("sketch: merging %T into Quantile", o))
	}
	if od.maxBuckets != d.maxBuckets {
		panic("sketch: merging Quantile sketches with different bucket bounds")
	}
	for d.shift < od.shift {
		d.compactOnce()
	}
	down := d.shift - od.shift
	// Merge the other histogram, folded to our resolution, in one
	// sorted pass.
	codes := make([]uint16, 0, len(d.codes)+len(od.codes))
	counts := make([]int64, 0, len(d.codes)+len(od.codes))
	i, j := 0, 0
	push := func(c uint16, n int64) {
		if k := len(codes); k > 0 && codes[k-1] == c {
			counts[k-1] += n
			return
		}
		codes = append(codes, c)
		counts = append(counts, n)
	}
	for i < len(d.codes) || j < len(od.codes) {
		var oc uint16
		if j < len(od.codes) {
			oc = od.codes[j] >> down
		}
		switch {
		case j >= len(od.codes) || (i < len(d.codes) && d.codes[i] <= oc):
			push(d.codes[i], d.counts[i])
			i++
		default:
			push(oc, od.counts[j])
			j++
		}
	}
	d.codes, d.counts = codes, counts
	d.total += od.total
	for len(d.codes) > d.maxBuckets {
		d.compactOnce()
	}
}

// Estimate implements Mergeable: the representative value at quantile
// q in [0, 1] (clamped).
func (d *Quantile) Estimate(q float64) float64 {
	if d.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := int64(q * float64(d.total-1))
	var cum int64
	for i, n := range d.counts {
		cum += n
		if cum > target {
			return qRep(d.codes[i], d.shift)
		}
	}
	return qRep(d.codes[len(d.codes)-1], d.shift)
}

// AppendBinary implements Mergeable: shift byte, 4-byte LE bucket
// count, then per bucket a 2-byte LE code and 8-byte LE count. The
// histogram is sorted and the (shift, histogram) pair canonical, so
// the form is a pure function of the absorbed multiset.
func (d *Quantile) AppendBinary(dst []byte) []byte {
	n := len(d.codes)
	dst = append(dst, d.shift, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
	for i, c := range d.codes {
		dst = append(dst, byte(c), byte(c>>8))
		u := uint64(d.counts[i])
		dst = append(dst,
			byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
			byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
	}
	return dst
}

// quantileFromBinary reconstructs a Quantile from AppendBinary output.
func quantileFromBinary(data []byte, maxBuckets int) (*Quantile, error) {
	if len(data) < 5 {
		return nil, fmt.Errorf("sketch: truncated quantile blob")
	}
	d := &Quantile{maxBuckets: maxBuckets, shift: data[0]}
	n := int(uint32(data[1]) | uint32(data[2])<<8 | uint32(data[3])<<16 | uint32(data[4])<<24)
	body := data[5:]
	if n > maxBuckets || len(body) != 10*n {
		return nil, fmt.Errorf("sketch: quantile blob claims %d buckets with %d payload bytes", n, len(body))
	}
	d.codes = make([]uint16, n)
	d.counts = make([]int64, n)
	for i := 0; i < n; i++ {
		b := body[i*10:]
		d.codes[i] = uint16(b[0]) | uint16(b[1])<<8
		d.counts[i] = int64(uint64(b[2]) | uint64(b[3])<<8 | uint64(b[4])<<16 | uint64(b[5])<<24 |
			uint64(b[6])<<32 | uint64(b[7])<<40 | uint64(b[8])<<48 | uint64(b[9])<<56)
		if d.counts[i] <= 0 {
			return nil, fmt.Errorf("sketch: quantile blob bucket %d has count %d", i, d.counts[i])
		}
		if i > 0 && d.codes[i-1] >= d.codes[i] {
			return nil, fmt.Errorf("sketch: quantile blob buckets are not strictly sorted")
		}
		d.total += d.counts[i]
	}
	return d, nil
}
