package record

import "sync"

// radixMinRows is the row count below which the comparison sort wins:
// the radix kernel's fixed costs (key extraction, counting passes,
// permutation gather) don't amortize over tiny tables.
const radixMinRows = 48

// sortScratch holds the reusable buffers of one radix sort: packed
// keys, the row permutation, their counting-sort doubles, and spare
// column/measure slices for the gather pass. Pooled so the per-sort-
// edge Project+sort churn of Pipesort stops allocating: each processor
// goroutine effectively reuses one scratch across its sorts.
type sortScratch struct {
	keyLo, keyHi []uint64
	tmpLo, tmpHi []uint64
	idx, tmpIdx  []uint32
	dims         []uint32
	meas         []int64
}

var scratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growU32(s []uint32, n int) []uint32 {
	if cap(s) < n {
		return make([]uint32, n)
	}
	return s[:n]
}

func growI64(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

// sortRadix sorts t with the packed-key kernel: extract one key per
// row, LSD radix sort the (key, rowIdx) pairs, then reorder dims and
// meas with a single gather pass instead of O(n log n) D-word swaps.
// The radix passes are stable, so equal keys keep their input order
// (the comparison path makes no such promise; both orders agglomerate
// to identical views because the aggregate operators are commutative).
func (t *Table) sortRadix(kp KeyPlan) {
	n := t.Len()
	sc := scratchPool.Get().(*sortScratch)
	wide := kp.Wide()
	sc.keyLo = growU64(sc.keyLo, n)
	sc.tmpLo = growU64(sc.tmpLo, n)
	sc.idx = growU32(sc.idx, n)
	sc.tmpIdx = growU32(sc.tmpIdx, n)
	if wide {
		sc.keyHi = growU64(sc.keyHi, n)
		sc.tmpHi = growU64(sc.tmpHi, n)
		kp.PackKeys(t, sc.keyHi, sc.keyLo)
	} else {
		kp.PackKeys(t, nil, sc.keyLo)
	}
	for i := range sc.idx {
		sc.idx[i] = uint32(i)
	}
	perm := radixSortKeys(sc, kp.bits, wide)
	t.applyPermutation(perm, sc)
	scratchPool.Put(sc)
}

// radixSortKeys LSD-radix-sorts the scratch's (keyLo, keyHi, idx)
// triples byte by byte — low word first, then the high word — and
// returns the slice holding the final row permutation. Passes whose
// byte is constant across all keys are skipped, so a plan of b bits
// costs at most ceil(b/8) counting passes and usually fewer.
func radixSortKeys(sc *sortScratch, bits int, wide bool) []uint32 {
	n := len(sc.keyLo)
	srcLo, dstLo := sc.keyLo, sc.tmpLo
	srcHi, dstHi := sc.keyHi, sc.tmpHi
	srcIdx, dstIdx := sc.idx, sc.tmpIdx
	var count [256]int

	loBits := bits
	if loBits > 64 {
		loBits = 64
	}
	pass := func(keys []uint64, shift uint) bool {
		for i := range count {
			count[i] = 0
		}
		for _, k := range keys {
			count[(k>>shift)&0xff]++
		}
		if count[(keys[0]>>shift)&0xff] == n {
			return false // constant byte: nothing to do
		}
		sum := 0
		for i := range count {
			c := count[i]
			count[i] = sum
			sum += c
		}
		return true
	}
	scatter := func(keys []uint64, shift uint) {
		if wide {
			for i, k := range keys {
				p := count[(k>>shift)&0xff]
				count[(k>>shift)&0xff] = p + 1
				dstLo[p] = srcLo[i]
				dstHi[p] = srcHi[i]
				dstIdx[p] = srcIdx[i]
			}
		} else {
			for i, k := range keys {
				p := count[(k>>shift)&0xff]
				count[(k>>shift)&0xff] = p + 1
				dstLo[p] = srcLo[i]
				dstIdx[p] = srcIdx[i]
			}
		}
	}
	flip := func() {
		srcLo, dstLo = dstLo, srcLo
		srcHi, dstHi = dstHi, srcHi
		srcIdx, dstIdx = dstIdx, srcIdx
	}

	for b := 0; b < loBits; b += 8 {
		shift := uint(b)
		if !pass(srcLo, shift) {
			continue
		}
		scatter(srcLo, shift)
		flip()
	}
	if wide {
		for b := 0; b < bits-64; b += 8 {
			shift := uint(b)
			if !pass(srcHi, shift) {
				continue
			}
			scatter(srcHi, shift)
			flip()
		}
	}
	return srcIdx
}

// applyPermutation gathers dims and meas into scratch buffers in perm
// order and swaps them into the table, leaving the table's previous
// slices in the scratch for reuse by the next sort.
func (t *Table) applyPermutation(perm []uint32, sc *sortScratch) {
	n := t.Len()
	d := t.D
	dims := growU32(sc.dims, n*d)
	meas := growI64(sc.meas, n)
	for i, p := range perm {
		copy(dims[i*d:i*d+d], t.dims[int(p)*d:int(p)*d+d])
		meas[i] = t.meas[p]
	}
	sc.dims, t.dims = t.dims[:0], dims
	sc.meas, t.meas = t.meas[:0], meas
	if t.state != nil {
		state := make([][]byte, n)
		for i, p := range perm {
			state[i] = t.state[p]
		}
		t.state = state
	}
}
