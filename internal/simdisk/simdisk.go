// Package simdisk models the private local disk of one shared-nothing
// processor. The paper's algorithm is an external-memory algorithm:
// every view is read from and written to local disk, and the two basic
// disk operations are the linear scan and the external-memory sort
// (Vitter [22]). This package provides the storage substrate with
// block-granular transfer accounting; package extsort builds the
// external sort on top of it.
//
// A Disk owns the tables stored on it. Take transfers ownership out
// (removing the file); Put transfers ownership in. Get grants shared
// read-only access: callers must not mutate a table obtained from Get.
// All data-moving operations charge the owning processor's simulated
// clock with access latency plus block-rounded transfer time, and are
// tallied in Stats.
package simdisk

import (
	"fmt"
	"sort"

	"repro/internal/colstore"
	"repro/internal/costmodel"
	"repro/internal/record"
)

// Stats aggregates the I/O activity of one disk.
type Stats struct {
	Reads        int // file-level read operations
	Writes       int // file-level write/append operations
	BytesRead    int64
	BytesWritten int64
}

// file is one stored view slice plus its uncharged metadata (e.g. the
// online spaced sample captured while the file was written, §2.4). The
// payload sits behind colstore.Store: freshly written files are
// row-oriented (TableStore); sealed files hold the columnar compressed
// image (*colstore.Slice) and charge I/O at compressed sizes.
type file struct {
	st   colstore.Store
	meta any
}

// slice returns the columnar image if the file is sealed, nil if it is
// row-oriented.
func (f *file) slice() *colstore.Slice {
	s, _ := f.st.(*colstore.Slice)
	return s
}

// Disk is the private simulated disk of one processor.
type Disk struct {
	clock *costmodel.Clock
	files map[string]*file
	stats Stats
}

// New returns an empty disk charging the given clock.
func New(clock *costmodel.Clock) *Disk {
	return &Disk{clock: clock, files: make(map[string]*file)}
}

// Clock returns the clock this disk charges.
func (d *Disk) Clock() *costmodel.Clock { return d.clock }

// Stats returns a copy of the accumulated I/O statistics.
func (d *Disk) Stats() Stats { return d.stats }

func (d *Disk) chargeRead(bytes int) {
	d.clock.AddDisk(bytes)
	d.stats.Reads++
	d.stats.BytesRead += int64(bytes)
}

func (d *Disk) chargeWrite(bytes int) {
	d.clock.AddDisk(bytes)
	d.stats.Writes++
	d.stats.BytesWritten += int64(bytes)
}

// Put stores t under name, replacing any existing file, and charges a
// sequential write of the table. The disk takes ownership of t. The
// file is row-oriented; Seal converts it to the columnar layout.
func (d *Disk) Put(name string, t *record.Table) {
	d.chargeWrite(t.Bytes())
	d.files[name] = &file{st: colstore.TableStore{T: t}}
}

// PutSlice stores an already-encoded columnar slice under name,
// charging a sequential write of the compressed image. The disk takes
// ownership of s. It is how snapshot loading and compressed replication
// land shipped slices without a decode/re-encode round trip.
func (d *Disk) PutSlice(name string, s *colstore.Slice) {
	d.chargeWrite(s.Bytes())
	d.files[name] = &file{st: s}
}

// Seal rewrites the named row-oriented file in the columnar compressed
// layout. Real systems fold the encode into the write that produced
// the file, paying compressed bytes instead of row bytes; our producer
// already charged the (larger) row-format write, so sealing charges
// only the encode's compute scan — a conservative upper bound on total
// I/O — and every subsequent read of the file pays compressed bytes.
// Sealing an already sealed file is free. Panics if the file does not
// exist.
func (d *Disk) Seal(name string) {
	f, ok := d.files[name]
	if !ok {
		panic(fmt.Sprintf("simdisk: file %q does not exist", name))
	}
	if f.slice() != nil {
		return
	}
	s := colstore.Encode(f.st.Table())
	d.clock.AddCompute(costmodel.ScanOps(s.Len()))
	f.st = s
}

// Sealed reports whether the named file is stored columnar. Missing
// files report false.
func (d *Disk) Sealed(name string) bool {
	f, ok := d.files[name]
	return ok && f.slice() != nil
}

// GetSlice returns shared read-only access to the columnar image of a
// sealed file, charging a sequential read of the compressed bytes. It
// returns false if the file is absent or row-oriented. Callers must
// not mutate the returned slice.
func (d *Disk) GetSlice(name string) (*colstore.Slice, bool) {
	f, ok := d.files[name]
	if !ok {
		return nil, false
	}
	s := f.slice()
	if s == nil {
		return nil, false
	}
	d.chargeRead(s.Bytes())
	return s, true
}

// ReadLeading returns the columnar image of a sealed file and the
// bytes reading only its leading column costs, without charging — the
// prefix-index build path, which needs the sort-prefix run directory
// but no other columns. Returns false if the file is absent or
// row-oriented.
func (d *Disk) ReadLeading(name string) (*colstore.Slice, int, bool) {
	f, ok := d.files[name]
	if !ok {
		return nil, 0, false
	}
	s := f.slice()
	if s == nil {
		return nil, 0, false
	}
	return s, colstore.SliceHeaderBytes + s.ColumnBytes(0), true
}

// Append appends the rows of t to the named file, creating it if
// absent, and charges a sequential write of the appended rows. The
// existing file's column count must match. Appending to a sealed file
// first materializes it back to row form, charging a sequential read
// of the compressed image.
func (d *Disk) Append(name string, t *record.Table) {
	d.chargeWrite(t.Bytes())
	if f, ok := d.files[name]; ok {
		d.materialize(f)
		f.st.Table().AppendTable(t)
		return
	}
	d.files[name] = &file{st: colstore.TableStore{T: t.Clone()}}
}

// materialize converts a sealed file back to row form in place,
// charging a read of the compressed image. Row files are untouched.
func (d *Disk) materialize(f *file) {
	if s := f.slice(); s != nil {
		d.chargeRead(s.Bytes())
		f.st = colstore.TableStore{T: s.Decode()}
	}
}

// Take removes the named file and returns its table, charging a full
// sequential read (at the compressed size if sealed). Ownership
// transfers to the caller: for sealed files the returned table is a
// fresh decode, never the shared cache Get hands out.
func (d *Disk) Take(name string) (*record.Table, bool) {
	f, ok := d.files[name]
	if !ok {
		return nil, false
	}
	d.chargeRead(f.st.Bytes())
	delete(d.files, name)
	if s := f.slice(); s != nil {
		return s.Decode(), true
	}
	return f.st.Table(), true
}

// MustTake is Take but panics if the file does not exist. It is used
// where a missing file indicates a bug in the algorithm's phase
// sequencing rather than a recoverable condition.
func (d *Disk) MustTake(name string) *record.Table {
	t, ok := d.Take(name)
	if !ok {
		panic(fmt.Sprintf("simdisk: file %q does not exist", name))
	}
	return t
}

// Get returns shared read-only access to the named file, charging a
// full sequential read (at the compressed size if sealed). The caller
// must not mutate the returned table; sealed files hand out a shared
// cached decode.
func (d *Disk) Get(name string) (*record.Table, bool) {
	t, bytes, ok := d.Read(name)
	if ok {
		d.chargeRead(bytes)
	}
	return t, ok
}

// Read is Get without the charge: it returns the shared table and the
// bytes Get would charge for it. It is the read of an operation that
// bills a ledger instead of the disk (ChargeRead replays the charge
// later), so it touches neither the clock nor Stats and may run
// concurrently with other reads.
func (d *Disk) Read(name string) (*record.Table, int, bool) {
	f, ok := d.files[name]
	if !ok {
		return nil, 0, false
	}
	return f.st.Table(), f.st.Bytes(), true
}

// ReadWindow returns a read-only Window of rows [lo,hi) of the named
// file's shared table and the bytes reading just those rows costs
// (RangeBytes on a sealed file, row bytes otherwise), without charging.
// A sealed file is decoded once, into the shared cache, however many
// windows are read from it; an empty window decodes nothing.
func (d *Disk) ReadWindow(name string, lo, hi int) (*record.Table, int) {
	f := d.rangeFile(name, lo, hi)
	if s := f.slice(); s != nil {
		if lo == hi {
			return record.New(s.D(), 0), 0
		}
		return s.Table().Window(lo, hi), s.RangeBytes(lo, hi)
	}
	return f.st.Table().Window(lo, hi), (hi - lo) * record.RowBytes(f.st.D())
}

// ChargeRead charges a read of bytes to the disk's clock and Stats,
// exactly as Get, ReadRange or a leading-column read would have: the
// replay of a read made through Read, ReadWindow or ReadLeading.
func (d *Disk) ChargeRead(bytes int) { d.chargeRead(bytes) }

// Peek returns shared read-only access to the named file without
// charging the clock. It is host-side introspection for post-run
// metrics collection (like Len and StoredBytes), not a primitive the
// simulated algorithm may use: algorithm reads go through Get/Take and
// pay for their bytes.
func (d *Disk) Peek(name string) (*record.Table, bool) {
	f, ok := d.files[name]
	if !ok {
		return nil, false
	}
	return f.st.Table(), true
}

// MustGet is Get but panics if the file does not exist.
func (d *Disk) MustGet(name string) *record.Table {
	t, ok := d.Get(name)
	if !ok {
		panic(fmt.Sprintf("simdisk: file %q does not exist", name))
	}
	return t
}

// ReadRange returns a copy of rows [lo,hi) of the named file, charging
// a read of just those rows (one access plus their bytes). It is the
// block-granular read primitive used by the external sort.
func (d *Disk) ReadRange(name string, lo, hi int) *record.Table {
	f := d.rangeFile(name, lo, hi)
	if s := f.slice(); s != nil {
		d.chargeRead(s.RangeBytes(lo, hi))
		return s.DecodeRange(lo, hi)
	}
	d.chargeRead((hi - lo) * record.RowBytes(f.st.D()))
	return f.st.Table().Sub(lo, hi)
}

// rangeFile returns the named file, panicking if it is absent or
// [lo,hi) is not a row range of it.
func (d *Disk) rangeFile(name string, lo, hi int) *file {
	f, ok := d.files[name]
	if !ok {
		panic(fmt.Sprintf("simdisk: file %q does not exist", name))
	}
	if lo < 0 || hi > f.st.Len() || lo > hi {
		panic(fmt.Sprintf("simdisk: range [%d,%d) out of bounds for %q (%d rows)", lo, hi, name, f.st.Len()))
	}
	return f
}

// Has reports whether the named file exists.
func (d *Disk) Has(name string) bool {
	_, ok := d.files[name]
	return ok
}

// Len returns the row count of the named file without charging I/O
// (metadata access), or -1 if it does not exist.
func (d *Disk) Len(name string) int {
	f, ok := d.files[name]
	if !ok {
		return -1
	}
	return f.st.Len()
}

// StoredBytes returns the modelled on-disk size of the named file
// (compressed if sealed) without charging I/O, or -1 if absent.
func (d *Disk) StoredBytes(name string) int {
	f, ok := d.files[name]
	if !ok {
		return -1
	}
	return f.st.Bytes()
}

// StateBytes returns the size of the sketch blobs the named file
// holds (0 for algebraic files and absent ones), without charging I/O.
func (d *Disk) StateBytes(name string) int {
	f, ok := d.files[name]
	if !ok {
		return 0
	}
	if s := f.slice(); s != nil {
		return s.StateBytes()
	}
	return f.st.Table().StateBytes()
}

// Cols returns the column count of the named file without charging I/O
// (metadata access), or -1 if it does not exist.
func (d *Disk) Cols(name string) int {
	f, ok := d.files[name]
	if !ok {
		return -1
	}
	return f.st.D()
}

// Rename renames a file without charging I/O (metadata operation),
// replacing any existing file of the new name. It panics if the source
// does not exist.
func (d *Disk) Rename(from, to string) {
	f, ok := d.files[from]
	if !ok {
		panic(fmt.Sprintf("simdisk: file %q does not exist", from))
	}
	delete(d.files, from)
	d.files[to] = f
}

// Mutate applies fn to the named file's table in place, charging
// touchedBytes of I/O (an in-place update of a few records, e.g. the
// boundary-item agglomeration of Merge–Partitions, rather than a full
// rewrite). fn may return the same table or a replacement; metadata is
// preserved. Mutating a sealed file first materializes it back to row
// form, charging a sequential read of the compressed image.
func (d *Disk) Mutate(name string, touchedBytes int, fn func(*record.Table) *record.Table) {
	f, ok := d.files[name]
	if !ok {
		panic(fmt.Sprintf("simdisk: file %q does not exist", name))
	}
	d.materialize(f)
	d.chargeWrite(touchedBytes)
	f.st = colstore.TableStore{T: fn(f.st.Table())}
}

// SetMeta attaches uncharged metadata to an existing file (for
// example, the online spaced sample built while the file was written).
// Metadata is discarded when the file is replaced, taken, or removed.
func (d *Disk) SetMeta(name string, v any) {
	f, ok := d.files[name]
	if !ok {
		panic(fmt.Sprintf("simdisk: file %q does not exist", name))
	}
	f.meta = v
}

// Meta returns the metadata attached to the named file, or nil.
func (d *Disk) Meta(name string) any {
	f, ok := d.files[name]
	if !ok {
		return nil
	}
	return f.meta
}

// Remove deletes the named file without charging I/O (metadata
// operation). It reports whether the file existed.
func (d *Disk) Remove(name string) bool {
	_, ok := d.files[name]
	delete(d.files, name)
	return ok
}

// Files returns the sorted list of file names on the disk.
func (d *Disk) Files() []string {
	names := make([]string, 0, len(d.files))
	for n := range d.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DecodedBytes returns the row-form bytes held by the decode caches of
// the disk's sealed files, without charging I/O: host memory the
// compressed images cost beyond their modelled size.
func (d *Disk) DecodedBytes() int64 {
	var n int64
	for _, f := range d.files {
		if s := f.slice(); s != nil {
			n += int64(s.DecodedBytes())
		}
	}
	return n
}
