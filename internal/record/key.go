package record

import (
	"fmt"
	"math/bits"
)

// maxKeyBits is the widest sort prefix the kernels pack: one uint64
// for narrow prefixes, a [hi, lo] pair of uint64 for wide ones.
const maxKeyBits = 128

// KeyPlan describes how a table's row prefix packs into a fixed-width
// integer key: per-column bit widths, most-significant column first,
// so that unsigned integer comparison of packed keys is exactly the
// lexicographic comparison of the rows. A plan packs when the summed
// widths fit 128 bits (one uint64 when they fit 64).
//
// Widths come from schema cardinalities when the caller knows them
// (PlanKeyFromCards) or from a measured per-column maximum
// (MeasureKeyPlan, the default inside Table.Sort). A plan built from
// measured maxima is valid only for the rows it measured; merging
// tables requires the Union of their plans.
type KeyPlan struct {
	widths []uint8
	bits   int
}

// PlanKeyWidths builds a plan from explicit per-column bit widths.
func PlanKeyWidths(widths []uint8) KeyPlan {
	kp := KeyPlan{widths: widths}
	for _, w := range widths {
		if w > 32 {
			panic(fmt.Sprintf("record: key width %d exceeds 32 bits", w))
		}
		kp.bits += int(w)
	}
	return kp
}

// PlanKeyFromCards builds a plan from per-column cardinalities (values
// are assumed in [0, card)). Unknown cardinalities (card <= 0) cost a
// full 32 bits.
func PlanKeyFromCards(cards []int) KeyPlan {
	widths := make([]uint8, len(cards))
	for i, c := range cards {
		if c <= 0 || c > 1<<32-1 {
			widths[i] = 32
		} else {
			widths[i] = uint8(bits.Len64(uint64(c - 1)))
		}
	}
	return PlanKeyWidths(widths)
}

// MeasureKeyPlan measures the per-column maxima of t in one scan and
// returns the tightest plan covering its rows.
func MeasureKeyPlan(t *Table) KeyPlan {
	d := t.D
	n := t.Len()
	maxs := make([]uint32, d)
	for i := 0; i < n; i++ {
		base := i * d
		for j := 0; j < d; j++ {
			if v := t.dims[base+j]; v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	widths := make([]uint8, d)
	for j, m := range maxs {
		widths[j] = uint8(bits.Len32(m))
	}
	return PlanKeyWidths(widths)
}

// Cols returns the number of columns the plan covers.
func (kp KeyPlan) Cols() int { return len(kp.widths) }

// Packable reports whether rows covered by the plan pack into the
// kernels' fixed-width keys.
func (kp KeyPlan) Packable() bool { return kp.bits <= maxKeyBits }

// Wide reports whether packed keys need the second (hi) word.
func (kp KeyPlan) Wide() bool { return kp.bits > 64 }

// Union returns the plan covering rows covered by either input (the
// per-column maximum width). Both plans must span the same columns.
func (kp KeyPlan) Union(o KeyPlan) KeyPlan {
	if len(kp.widths) != len(o.widths) {
		panic(fmt.Sprintf("record: union of key plans over %d and %d columns", len(kp.widths), len(o.widths)))
	}
	widths := make([]uint8, len(kp.widths))
	for i := range widths {
		widths[i] = kp.widths[i]
		if o.widths[i] > widths[i] {
			widths[i] = o.widths[i]
		}
	}
	return PlanKeyWidths(widths)
}

// PackKeys bulk-extracts the packed keys of every row of t into lo
// (and hi when the plan is wide; pass nil otherwise). The slices must
// have length t.Len(). This is the column-gather half of the radix
// kernel, exposed for benchmarks and cross-package merges.
func (kp KeyPlan) PackKeys(t *Table, hi, lo []uint64) {
	n := t.Len()
	if len(lo) != n || (kp.Wide() && len(hi) != n) {
		panic("record: PackKeys slice length mismatch")
	}
	d := t.D
	if kp.Wide() {
		for i := 0; i < n; i++ {
			var h, l uint64
			base := i * d
			for j, w := range kp.widths {
				h = h<<w | l>>(64-w)
				l = l<<w | uint64(t.dims[base+j])
			}
			hi[i], lo[i] = h, l
		}
		return
	}
	for i := 0; i < n; i++ {
		var l uint64
		base := i * d
		for j, w := range kp.widths {
			l = l<<w | uint64(t.dims[base+j])
		}
		lo[i] = l
	}
}
