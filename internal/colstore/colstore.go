// Package colstore implements the columnar compressed layout for
// sorted view slices: per-column run-length encoding on the sort-prefix
// dimensions, bit-packing with measured widths on the remaining code
// columns, and offset-from-minimum bit-packing for measures. Because
// every materialized view slice is stored globally sorted in its
// attribute order, the leading columns are long runs of equal codes and
// RLE collapses them to a run directory; deeper columns rarely repeat
// and fall back to dense bit-packing, whose width shrinks when
// dictionary codes are reassigned by descending frequency at
// dictionary-freeze time (Kaser & Lemire's attribute-value reordering).
//
// A Slice is the unit the rest of the system moves around: simdisk
// files hold one behind the Store interface, the snapshot
// streams them directly, one view section at a time (per rank, so a
// load re-places slices without re-cutting — the near-zero-copy path;
// saving reads no rows, since a sealed Slice is never modified), and
// checkpoint replication ships them over the wire at their compressed
// size. Decoding is lazy: Table() materializes the row form once and
// caches it, the mmap-style block-handle idiom — holding a Slice costs
// nothing until someone reads rows through it (DecodedBytes counts what
// the cache holds).
//
// Everything here is deterministic: the encoding chosen for a column
// depends only on the column's values, so modelled byte sizes (and the
// simulated charges derived from them) are identical run to run.
package colstore

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/record"
)

// Column encodings.
const (
	// KindPacked stores every value bit-packed at Width bits.
	KindPacked uint8 = iota
	// KindRLE stores maximal runs: run values bit-packed at Width bits
	// plus a directory of run end rows.
	KindRLE
)

// ErrCorrupt is wrapped by every validation failure of a columnar
// block, so loaders can detect damaged or truncated slices with
// errors.Is instead of panicking mid-decode.
var ErrCorrupt = errors.New("colstore: corrupt columnar block")

// Column is one encoded dimension column.
type Column struct {
	Kind  uint8
	Width uint8 // bits per value (0 when every value is 0)
	N     int   // logical row count
	// Words bit-packs the values LSB-first: row values for KindPacked,
	// run values for KindRLE.
	Words []uint64
	// Ends (KindRLE only) holds each run's exclusive end row,
	// strictly increasing; the last entry equals N.
	Ends []uint32
}

// Slice is one view slice in columnar form. All payload fields are
// exported so persist can gob-serialize a Slice as-is; the decode
// cache is unexported state the codec never sees.
type Slice struct {
	NumCols int
	NumRows int
	Cols    []Column
	// Measures are stored as offsets from MeasMin, bit-packed at
	// MeasWidth bits. The offset subtraction is modular over uint64, so
	// any int64 span round-trips exactly.
	MeasMin   int64
	MeasWidth uint8
	MeasWords []uint64
	// State is the holistic state column (record.Table's): the sealed
	// sketch blobs of the rows that have one, concatenated in row
	// order, and StateEnds[i] the end offset of row i's blob (a row
	// without one has an empty range). Both are nil for a slice with
	// no blob, so algebraic slices carry nothing.
	StateEnds []uint32
	State     []byte

	mu    sync.Mutex
	cache *record.Table
}

// Store is the storage interface a simdisk file holds its relation
// behind: the row-form *record.Table (via TableStore) and the columnar
// *Slice both satisfy it, so every disk primitive works on either
// layout and charges the layout's modelled size.
type Store interface {
	// Len returns the row count.
	Len() int
	// D returns the dimension column count.
	D() int
	// Bytes returns the modelled stored size.
	Bytes() int
	// Table returns a row-form view of the store. For a Slice it is a
	// cached decode shared between callers, read-only by contract (the
	// same contract simdisk.Get has always had).
	Table() *record.Table
}

// TableStore adapts a row-form table to the Store interface.
type TableStore struct{ T *record.Table }

func (ts TableStore) Len() int             { return ts.T.Len() }
func (ts TableStore) D() int               { return ts.T.D }
func (ts TableStore) Bytes() int           { return ts.T.Bytes() }
func (ts TableStore) Table() *record.Table { return ts.T }

// Modelled header overhead: a slice header plus one per column and one
// for the measure column. Kept deliberately small and fixed so byte
// accounting is stable.
const (
	SliceHeaderBytes  = 16
	ColumnHeaderBytes = 12
)

// bitsFor returns the number of bits needed to represent v.
func bitsFor(v uint64) uint8 {
	w := uint8(0)
	for v != 0 {
		w++
		v >>= 1
	}
	return w
}

// wordsFor returns the uint64 word count backing n values of w bits.
func wordsFor(n int, w uint8) int {
	if w == 0 || n == 0 {
		return 0
	}
	return (n*int(w) + 63) / 64
}

// packedBytes models the byte size of n values at w bits.
func packedBytes(n int, w uint8) int {
	if w == 0 || n == 0 {
		return 0
	}
	return (n*int(w) + 7) / 8
}

// newWords returns the zeroed word array backing n values of w bits
// (nil when it would be empty).
func newWords(n int, w uint8) []uint64 {
	nw := wordsFor(n, w)
	if nw == 0 {
		return nil
	}
	return make([]uint64, nw)
}

// put stores value i (which must fit in w bits) into an LSB-first
// packed word array from newWords.
func put(words []uint64, i int, w uint8, v uint64) {
	if w == 0 {
		return
	}
	bit := i * int(w)
	word, off := bit>>6, uint(bit&63)
	words[word] |= v << off
	if off+uint(w) > 64 {
		words[word+1] |= v >> (64 - off)
	}
}

// unpack extracts value i from an LSB-first packed word array.
func unpack(words []uint64, i int, w uint8) uint64 {
	if w == 0 {
		return 0
	}
	bit := i * int(w)
	word, off := bit>>6, uint(bit&63)
	v := words[word] >> off
	if off+uint(w) > 64 {
		v |= words[word+1] << (64 - off)
	}
	if w == 64 {
		return v
	}
	return v & (1<<uint(w) - 1)
}

// Encode compresses a table into a Slice. The choice of encoding per
// column (RLE vs packed) minimizes the modelled byte size and depends
// only on the column's values, so it is deterministic. Each column is
// read straight from t twice, once to measure its width and runs and
// once to pack it, with no staging copy. Encode does not take
// ownership of t.
func Encode(t *record.Table) *Slice {
	n := t.Len()
	s := &Slice{NumCols: t.D, NumRows: n, Cols: make([]Column, t.D)}
	for j := 0; j < t.D; j++ {
		var maxv uint32
		runs := 0
		for i := 0; i < n; i++ {
			v := t.Dim(i, j)
			if v > maxv {
				maxv = v
			}
			if i == 0 || v != t.Dim(i-1, j) {
				runs++
			}
		}
		w := bitsFor(uint64(maxv))
		col := Column{Width: w, N: n}
		if packedBytes(runs, w)+4*runs < packedBytes(n, w) {
			col.Kind = KindRLE
			col.Words = newWords(runs, w)
			col.Ends = make([]uint32, runs)
			r := 0
			for i := 0; i < n; i++ {
				v := t.Dim(i, j)
				if i > 0 && v == t.Dim(i-1, j) {
					continue
				}
				if r > 0 {
					col.Ends[r-1] = uint32(i)
				}
				put(col.Words, r, w, uint64(v))
				r++
			}
			col.Ends[runs-1] = uint32(n)
		} else {
			col.Kind = KindPacked
			col.Words = newWords(n, w)
			for i := 0; i < n; i++ {
				put(col.Words, i, w, uint64(t.Dim(i, j)))
			}
		}
		s.Cols[j] = col
	}
	if n > 0 {
		minv, maxv := t.Meas(0), t.Meas(0)
		for i := 1; i < n; i++ {
			m := t.Meas(i)
			if m < minv {
				minv = m
			}
			if m > maxv {
				maxv = m
			}
		}
		s.MeasMin = minv
		s.MeasWidth = bitsFor(uint64(maxv) - uint64(minv))
		s.MeasWords = newWords(n, s.MeasWidth)
		for i := 0; i < n; i++ {
			put(s.MeasWords, i, s.MeasWidth, uint64(t.Meas(i))-uint64(minv))
		}
	}
	if size := t.StateBytes(); size > 0 {
		s.State = make([]byte, 0, size)
		s.StateEnds = make([]uint32, n)
		for i := 0; i < n; i++ {
			s.State = append(s.State, t.State(i)...)
			s.StateEnds[i] = uint32(len(s.State))
		}
	}
	return s
}

// Len returns the row count (nil-safe).
func (s *Slice) Len() int {
	if s == nil {
		return 0
	}
	return s.NumRows
}

// D returns the dimension column count.
func (s *Slice) D() int { return s.NumCols }

// columnBytes models one column's encoded size, header included.
func (c *Column) columnBytes() int {
	if c.Kind == KindRLE {
		return ColumnHeaderBytes + packedBytes(len(c.Ends), c.Width) + 4*len(c.Ends)
	}
	return ColumnHeaderBytes + packedBytes(c.N, c.Width)
}

// Bytes returns the modelled compressed size of the slice (nil-safe:
// a nil slice models an absent payload of zero bytes). Sketch blobs
// count at their length, as on a wire: the offsets that index them
// are the decoder's, not billed.
func (s *Slice) Bytes() int {
	if s == nil {
		return 0
	}
	b := SliceHeaderBytes + ColumnHeaderBytes + packedBytes(s.NumRows, s.MeasWidth) + len(s.State)
	for j := range s.Cols {
		b += s.Cols[j].columnBytes()
	}
	return b
}

// ColumnBytes returns the modelled encoded size of dimension column j
// (the run directory a prefix index reads), header included.
func (s *Slice) ColumnBytes(j int) int { return s.Cols[j].columnBytes() }

// RangeBytes models the bytes touched by reading rows [lo, hi): for
// packed columns the rows' packed bits, for RLE columns the runs
// overlapping the range. This is the block-granular charge ReadRange
// pays on a sealed file.
func (s *Slice) RangeBytes(lo, hi int) int {
	n := hi - lo
	if n <= 0 {
		return 0
	}
	b := SliceHeaderBytes + ColumnHeaderBytes + packedBytes(n, s.MeasWidth) + s.stateRange(lo, hi)
	for j := range s.Cols {
		c := &s.Cols[j]
		if c.Kind == KindRLE {
			r0 := sort.Search(len(c.Ends), func(k int) bool { return int(c.Ends[k]) > lo })
			r1 := sort.Search(len(c.Ends), func(k int) bool { return int(c.Ends[k]) >= hi })
			runs := r1 - r0 + 1
			b += ColumnHeaderBytes + packedBytes(runs, c.Width) + 4*runs
		} else {
			b += ColumnHeaderBytes + packedBytes(n, c.Width)
		}
	}
	return b
}

// stateOffsets returns the byte range [from, to) of rows [lo, hi)'s
// blobs in State.
func (s *Slice) stateOffsets(lo, hi int) (from, to int) {
	if s.StateEnds == nil || hi <= lo {
		return 0, 0
	}
	if lo > 0 {
		from = int(s.StateEnds[lo-1])
	}
	return from, int(s.StateEnds[hi-1])
}

// stateRange returns the size of rows [lo, hi)'s blobs.
func (s *Slice) stateRange(lo, hi int) int {
	from, to := s.stateOffsets(lo, hi)
	return to - from
}

// StateBytes returns the size of the slice's sketch blobs.
func (s *Slice) StateBytes() int { return len(s.State) }

// Dim returns row i's value in dimension column j (random access:
// direct unpack for packed columns, run binary search for RLE).
func (s *Slice) Dim(i, j int) uint32 {
	c := &s.Cols[j]
	if c.Kind == KindRLE {
		r := sort.Search(len(c.Ends), func(k int) bool { return int(c.Ends[k]) > i })
		return uint32(unpack(c.Words, r, c.Width))
	}
	return uint32(unpack(c.Words, i, c.Width))
}

// Meas returns row i's measure.
func (s *Slice) Meas(i int) int64 {
	return int64(uint64(s.MeasMin) + unpack(s.MeasWords, i, s.MeasWidth))
}

// DecodeRange materializes rows [lo, hi) as a fresh row-form table. It
// decodes a column at a time into the presized table: a packed column
// is unpacked sequentially, an RLE column fills each run once, and
// zero values (width-0 columns, zero runs) are left as allocated.
func (s *Slice) DecodeRange(lo, hi int) *record.Table {
	n, d := hi-lo, s.NumCols
	t, dims, meas := record.Alloc(d, n)
	if n == 0 {
		return t
	}
	for j := range s.Cols {
		c := &s.Cols[j]
		if c.Width == 0 {
			continue
		}
		if c.Kind == KindRLE {
			r := sort.Search(len(c.Ends), func(k int) bool { return int(c.Ends[k]) > lo })
			for i := lo; i < hi; r++ {
				end := min(int(c.Ends[r]), hi)
				if v := uint32(unpack(c.Words, r, c.Width)); v != 0 {
					for k := (i-lo)*d + j; k < (end-lo)*d; k += d {
						dims[k] = v
					}
				}
				i = end
			}
			continue
		}
		br := newBitReader(c.Words, c.Width, lo)
		mask := uint64(1)<<c.Width - 1
		for k := j; k < n*d; k += d {
			dims[k] = uint32(br.next() & mask)
		}
	}
	if s.MeasWidth == 0 {
		for i := range meas {
			meas[i] = s.MeasMin
		}
	} else {
		br := newBitReader(s.MeasWords, s.MeasWidth, lo)
		mask := ^uint64(0) >> (64 - s.MeasWidth)
		for i := range meas {
			meas[i] = int64(uint64(s.MeasMin) + br.next()&mask)
		}
	}
	// Blobs alias State: a decoded table is read-only, like the cache.
	if s.StateEnds != nil {
		from, _ := s.stateOffsets(lo, lo+1)
		for i := lo; i < hi; i++ {
			if to := int(s.StateEnds[i]); to > from {
				t.SetState(i-lo, s.State[from:to:to])
				from = to
			}
		}
	}
	return t
}

// bitReader reads consecutive w-bit values (0 < w <= 64) of an
// LSB-first packed word array: cur holds the avail unread bits of word
// idx, and a value that straddles into the next word takes its low
// bits from cur and the rest from that word.
type bitReader struct {
	words    []uint64
	idx      int
	cur      uint64
	avail, w uint
}

// newBitReader positions a reader at value i.
func newBitReader(words []uint64, w uint8, i int) bitReader {
	bit := i * int(w)
	return bitReader{words: words, idx: bit >> 6, cur: words[bit>>6] >> (bit & 63), avail: 64 - uint(bit&63), w: uint(w)}
}

// next returns the next value, with bits above w left unmasked.
func (b *bitReader) next() uint64 {
	v := b.cur
	if b.avail >= b.w {
		b.cur >>= b.w // a shift by 64 yields 0
		b.avail -= b.w
		return v
	}
	b.idx++
	nx := b.words[b.idx]
	v |= nx << b.avail
	b.cur, b.avail = nx>>(b.w-b.avail), 64-(b.w-b.avail)
	return v
}

// Decode materializes the whole slice as a fresh row-form table.
func (s *Slice) Decode() *record.Table { return s.DecodeRange(0, s.NumRows) }

// Table returns the slice's cached row-form decode, materializing it
// on first use. Callers must treat the result as read-only; callers
// needing a mutable table use Decode.
func (s *Slice) Table() *record.Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		s.cache = s.Decode()
	}
	return s.cache
}

// DecodedBytes returns the row-form bytes the decode cache holds: zero
// until the first Table call, the cached table's size after it.
func (s *Slice) DecodedBytes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cache == nil {
		return 0
	}
	return s.cache.Bytes()
}

// LeadingRuns returns the run directory of the leading sort column:
// vals[k] is run k's value, starts[k] its first row, with one extra
// starts entry holding the slice length — exactly the shape the query
// engine's prefix Index wants. For an RLE leading column this reads
// the directory that is already materialized (no row scan).
func (s *Slice) LeadingRuns() (vals []uint32, starts []int) {
	if s.NumCols == 0 || s.NumRows == 0 {
		return nil, []int{0}
	}
	c := &s.Cols[0]
	if c.Kind == KindRLE {
		vals = make([]uint32, len(c.Ends))
		starts = make([]int, len(c.Ends)+1)
		for k := range c.Ends {
			vals[k] = uint32(unpack(c.Words, k, c.Width))
			starts[k+1] = int(c.Ends[k])
		}
		return vals, starts
	}
	for i := 0; i < s.NumRows; i++ {
		v := uint32(unpack(c.Words, i, c.Width))
		if len(vals) == 0 || vals[len(vals)-1] != v {
			vals = append(vals, v)
			starts = append(starts, i)
		}
	}
	starts = append(starts, s.NumRows)
	return vals, starts
}

// Clone deep-copies the slice's payload (not the decode cache), the
// simulated-wire analogue of record.Table.Clone.
func (s *Slice) Clone() *Slice {
	if s == nil {
		return nil
	}
	c := &Slice{
		NumCols:   s.NumCols,
		NumRows:   s.NumRows,
		Cols:      make([]Column, len(s.Cols)),
		MeasMin:   s.MeasMin,
		MeasWidth: s.MeasWidth,
		MeasWords: append([]uint64(nil), s.MeasWords...),
	}
	if s.StateEnds != nil {
		c.StateEnds = append([]uint32(nil), s.StateEnds...)
		c.State = append([]byte(nil), s.State...)
	}
	for j, col := range s.Cols {
		col.Words = append([]uint64(nil), col.Words...)
		col.Ends = append([]uint32(nil), col.Ends...)
		c.Cols[j] = col
	}
	return c
}

// Checksum hashes the slice's wire image (headers and payload words),
// for the checked exchange's and the snapshot's corruption detection.
// Each 64-bit word is folded in whole: an FNV-1a xor-multiply, then an
// xorshift that feeds high bits back into low ones. Every step is a
// bijection of the running hash, so changing any one word always
// changes the result — at one multiply per word, not FNV's one per byte.
func (s *Slice) Checksum() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		h = (h ^ v) * prime
		h ^= h >> 29
	}
	if s == nil {
		return h
	}
	mix(uint64(s.NumCols))
	mix(uint64(s.NumRows))
	mix(uint64(s.MeasMin))
	mix(uint64(s.MeasWidth))
	for _, w := range s.MeasWords {
		mix(w)
	}
	for j := range s.Cols {
		c := &s.Cols[j]
		mix(uint64(c.Kind)<<32 | uint64(c.Width))
		for _, w := range c.Words {
			mix(w)
		}
		for _, e := range c.Ends {
			mix(uint64(e))
		}
	}
	for _, e := range s.StateEnds {
		mix(uint64(e))
	}
	for i := 0; i < len(s.State); i += 8 {
		var w uint64
		for k, b := range s.State[i:min(i+8, len(s.State))] {
			w |= uint64(b) << (8 * k)
		}
		mix(w)
	}
	return h
}

// Corrupt flips one payload bit chosen by mask, modelling wire damage
// for fault injection; it reports whether any bit was flipped (a slice
// with no payload cannot be damaged detectably).
func (s *Slice) Corrupt(mask uint64) bool {
	if s == nil {
		return false
	}
	var words []*uint64
	for j := range s.Cols {
		for k := range s.Cols[j].Words {
			words = append(words, &s.Cols[j].Words[k])
		}
	}
	for k := range s.MeasWords {
		words = append(words, &s.MeasWords[k])
	}
	if len(words) == 0 {
		return false
	}
	w := words[int(mask%uint64(len(words)))]
	*w ^= 1 << ((mask >> 8) % 64)
	return true
}

// Validate checks the slice's structural invariants, returning an
// error wrapping ErrCorrupt on any violation — the typed failure mode
// for damaged or truncated persisted blocks.
func (s *Slice) Validate() error {
	if s == nil {
		return fmt.Errorf("%w: nil slice", ErrCorrupt)
	}
	if s.NumCols < 0 || s.NumRows < 0 {
		return fmt.Errorf("%w: negative shape %dx%d", ErrCorrupt, s.NumRows, s.NumCols)
	}
	if len(s.Cols) != s.NumCols {
		return fmt.Errorf("%w: %d columns, header says %d", ErrCorrupt, len(s.Cols), s.NumCols)
	}
	for j := range s.Cols {
		c := &s.Cols[j]
		if c.N != s.NumRows {
			return fmt.Errorf("%w: column %d has %d rows, slice has %d", ErrCorrupt, j, c.N, s.NumRows)
		}
		if c.Width > 32 {
			return fmt.Errorf("%w: column %d width %d exceeds 32 bits", ErrCorrupt, j, c.Width)
		}
		switch c.Kind {
		case KindPacked:
			if len(c.Ends) != 0 {
				return fmt.Errorf("%w: packed column %d has a run directory", ErrCorrupt, j)
			}
			if len(c.Words) != wordsFor(c.N, c.Width) {
				return fmt.Errorf("%w: column %d has %d words, want %d", ErrCorrupt, j, len(c.Words), wordsFor(c.N, c.Width))
			}
		case KindRLE:
			if c.N == 0 {
				if len(c.Ends) != 0 || len(c.Words) != 0 {
					return fmt.Errorf("%w: empty RLE column %d has payload", ErrCorrupt, j)
				}
				continue
			}
			if len(c.Ends) == 0 || int(c.Ends[len(c.Ends)-1]) != c.N {
				return fmt.Errorf("%w: column %d run directory does not cover %d rows", ErrCorrupt, j, c.N)
			}
			prev := uint32(0)
			for k, e := range c.Ends {
				if e <= prev && k > 0 || e == 0 {
					return fmt.Errorf("%w: column %d run directory not increasing at %d", ErrCorrupt, j, k)
				}
				prev = e
			}
			if len(c.Words) != wordsFor(len(c.Ends), c.Width) {
				return fmt.Errorf("%w: column %d has %d run words, want %d", ErrCorrupt, j, len(c.Words), wordsFor(len(c.Ends), c.Width))
			}
		default:
			return fmt.Errorf("%w: column %d has unknown encoding %d", ErrCorrupt, j, c.Kind)
		}
	}
	if len(s.MeasWords) != wordsFor(s.NumRows, s.MeasWidth) {
		return fmt.Errorf("%w: %d measure words, want %d", ErrCorrupt, len(s.MeasWords), wordsFor(s.NumRows, s.MeasWidth))
	}
	if s.StateEnds == nil {
		if len(s.State) != 0 {
			return fmt.Errorf("%w: %d state bytes without offsets", ErrCorrupt, len(s.State))
		}
		return nil
	}
	if len(s.StateEnds) != s.NumRows {
		return fmt.Errorf("%w: %d state offsets, slice has %d rows", ErrCorrupt, len(s.StateEnds), s.NumRows)
	}
	prev := uint32(0)
	for i, e := range s.StateEnds {
		if e < prev {
			return fmt.Errorf("%w: state offsets decrease at row %d", ErrCorrupt, i)
		}
		prev = e
	}
	if int(prev) != len(s.State) {
		return fmt.Errorf("%w: state offsets end at %d, column has %d bytes", ErrCorrupt, prev, len(s.State))
	}
	return nil
}
