package record

// Checksum returns an FNV-1a hash of the table's wire image (column
// count, then the row-major dimension values and measures, then any
// sketch blobs). It is the
// integrity check on h-relation payloads: a retransmitting transport
// compares the received table's checksum against the sender's.
func (t *Table) Checksum() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix32 := func(v uint32) {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(v>>s) & 0xff
			h *= prime
		}
	}
	mix32(uint32(t.D))
	mix32(uint32(t.Len()))
	for _, v := range t.dims {
		mix32(v)
	}
	for _, m := range t.meas {
		mix32(uint32(m))
		mix32(uint32(uint64(m) >> 32))
	}
	for _, b := range t.state {
		mix32(uint32(len(b)))
		for _, c := range b {
			h ^= uint64(c)
			h *= prime
		}
	}
	return h
}

// Corrupt flips the bits of mask in one cell of the table (the first
// dimension value, or the first measure for zero-column tables). It
// reports whether anything changed; an empty table has no payload to
// damage. mask must be nonzero for the change to be observable.
func (t *Table) Corrupt(mask uint32) bool {
	if len(t.dims) > 0 {
		t.dims[0] ^= mask
		return true
	}
	if len(t.meas) > 0 {
		t.meas[0] ^= int64(mask)
		return true
	}
	return false
}
