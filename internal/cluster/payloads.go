package cluster

// Payload is a bulk-exchange payload the checked path can verify and
// damage: compressed view slices (colstore.Slice) satisfy it. Methods
// must be nil-safe on pointer receivers — a nil payload models an
// absent message of zero bytes.
type Payload interface {
	// Bytes is the modelled wire size.
	Bytes() int
	// Len is the logical row count, charged for checksum scans.
	Len() int
	// Checksum hashes the wire image.
	Checksum() uint64
	// Corrupt deterministically damages the payload in place, reporting
	// whether any bit changed.
	Corrupt(mask uint64) bool
}

// AllToAllPayloads is the bulk h-relation for arbitrary Payload types,
// charged at each payload's modelled (compressed) wire size. clone
// deep-copies a payload: the simulated wire must not alias the
// sender's live value, and injected corruption damages copies. With a
// fault plan installed the exchange runs checked — the same protocol,
// charges and Stats.Retried accounting as AllToAllTables.
func AllToAllPayloads[T Payload](p *Proc, out []T, clone func(T) T) []T {
	size := func(v T) int {
		if v.Len() == 0 {
			return 0
		}
		return v.Bytes()
	}
	var in []T
	if p.m.faults == nil {
		in = AllToAll(p, out, size)
	} else {
		in = allToAllChecked(p, out, wire[T]{
			size:    size,
			rows:    T.Len,
			sum:     T.Checksum,
			corrupt: func(v T, mask uint32) bool { return v.Corrupt(uint64(mask)) },
			clone:   clone,
		})
	}
	// The delivery that sticks must not alias the sender's live value.
	for j := range in {
		if in[j].Len() > 0 {
			in[j] = clone(in[j])
		}
	}
	return in
}
