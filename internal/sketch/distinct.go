package sketch

import (
	"fmt"
	"sort"

	"repro/internal/estimate"
)

// Distinct is a hybrid distinct-count sketch: up to threshold distinct
// values it stores the exact sorted value set (zero error); past it,
// the set is folded into a Flajolet–Martin PCSA sketch (the same
// machinery the size estimator uses). The final form is a pure
// function of the absorbed multiset — exact iff the multiset has at
// most threshold distinct values — because the distinct count of a
// union is monotone: no insertion or merge order can keep a too-large
// set exact or demote a small one to FM.
type Distinct struct {
	threshold int
	m         int // FM bitmap count
	exact     []uint64
	fm        *estimate.FMSketch
}

// Wire tags for the two serialized forms.
const (
	distinctTagExact = 0
	distinctTagFM    = 1
)

// NewDistinct returns an empty sketch with the given exact threshold
// and FM bitmap count.
func NewDistinct(threshold, fmBitmaps int) *Distinct {
	if threshold < 1 {
		panic("sketch: distinct exact threshold must be positive")
	}
	return &Distinct{threshold: threshold, m: fmBitmaps}
}

// Insert implements Mergeable.
func (d *Distinct) Insert(v int64) {
	if d.fm != nil {
		d.fm.Add(estimate.Hash64(uint64(v)))
		return
	}
	u := uint64(v)
	i := sort.Search(len(d.exact), func(i int) bool { return d.exact[i] >= u })
	if i < len(d.exact) && d.exact[i] == u {
		return
	}
	d.exact = append(d.exact, 0)
	copy(d.exact[i+1:], d.exact[i:])
	d.exact[i] = u
	if len(d.exact) > d.threshold {
		d.convert()
	}
}

// convert folds the exact set into an FM sketch.
func (d *Distinct) convert() {
	d.fm = estimate.NewFMSketch(d.m)
	for _, u := range d.exact {
		d.fm.Add(estimate.Hash64(u))
	}
	d.exact = nil
}

// Merge implements Mergeable; o must be a *Distinct with identical
// parameters and is not modified.
func (d *Distinct) Merge(o Mergeable) {
	od, ok := o.(*Distinct)
	if !ok {
		panic(fmt.Sprintf("sketch: merging %T into Distinct", o))
	}
	if od.threshold != d.threshold || od.m != d.m {
		panic("sketch: merging Distinct sketches with different parameters")
	}
	switch {
	case d.fm == nil && od.fm == nil:
		// Union of two sorted sets; may overflow into FM.
		merged := make([]uint64, 0, len(d.exact)+len(od.exact))
		i, j := 0, 0
		for i < len(d.exact) && j < len(od.exact) {
			a, b := d.exact[i], od.exact[j]
			switch {
			case a < b:
				merged = append(merged, a)
				i++
			case b < a:
				merged = append(merged, b)
				j++
			default:
				merged = append(merged, a)
				i++
				j++
			}
		}
		merged = append(merged, d.exact[i:]...)
		merged = append(merged, od.exact[j:]...)
		d.exact = merged
		if len(d.exact) > d.threshold {
			d.convert()
		}
	case d.fm != nil && od.fm != nil:
		d.fm.Merge(od.fm)
	case d.fm != nil: // other exact
		for _, u := range od.exact {
			d.fm.Add(estimate.Hash64(u))
		}
	default: // self exact, other FM
		d.convert()
		d.fm.Merge(od.fm)
	}
}

// Estimate implements Mergeable; q is ignored for distinct counting.
func (d *Distinct) Estimate(float64) float64 {
	if d.fm == nil {
		return float64(len(d.exact))
	}
	return d.fm.Estimate()
}

// AppendBinary implements Mergeable: a tag byte, then either the
// sorted value set (4-byte LE count + 8-byte LE values) or the FM
// bitmaps. Both forms are canonical for the absorbed multiset.
func (d *Distinct) AppendBinary(dst []byte) []byte {
	if d.fm == nil {
		n := len(d.exact)
		dst = append(dst, distinctTagExact, byte(n), byte(n>>8), byte(n>>16), byte(n>>24))
		for _, u := range d.exact {
			dst = append(dst,
				byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
				byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
		}
		return dst
	}
	return d.fm.AppendBinary(append(dst, distinctTagFM))
}

// distinctFromBinary reconstructs a Distinct from AppendBinary output.
func distinctFromBinary(data []byte, threshold, fmBitmaps int) (*Distinct, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("sketch: empty distinct blob")
	}
	d := &Distinct{threshold: threshold, m: fmBitmaps}
	switch data[0] {
	case distinctTagExact:
		body := data[1:]
		if len(body) < 4 {
			return nil, fmt.Errorf("sketch: truncated distinct blob")
		}
		n := int(uint32(body[0]) | uint32(body[1])<<8 | uint32(body[2])<<16 | uint32(body[3])<<24)
		body = body[4:]
		if n > threshold || len(body) != 8*n {
			return nil, fmt.Errorf("sketch: distinct blob claims %d values with %d payload bytes", n, len(body))
		}
		d.exact = make([]uint64, n)
		for i := range d.exact {
			b := body[i*8:]
			d.exact[i] = uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
				uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
		}
		for i := 1; i < n; i++ {
			if d.exact[i-1] >= d.exact[i] {
				return nil, fmt.Errorf("sketch: distinct blob value set is not strictly sorted")
			}
		}
	case distinctTagFM:
		fm, err := estimate.FMFromBinary(data[1:])
		if err != nil {
			return nil, err
		}
		if fm.Bytes() != fmBitmaps*8 {
			return nil, fmt.Errorf("sketch: distinct blob FM size %d bytes, want %d", fm.Bytes(), fmBitmaps*8)
		}
		d.fm = fm
	default:
		return nil, fmt.Errorf("sketch: unknown distinct blob tag %d", data[0])
	}
	return d, nil
}
