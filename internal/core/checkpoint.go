package core

// Per-dimension checkpointing and crash recovery. The protocol exploits
// the structure of Procedure 1: every dimension iteration re-reads the
// immutable raw share and its outputs are exactly the views of the
// Di-partition, so the durable state needed to restart from a dimension
// boundary is the raw share plus the completed views. Each processor
// therefore replicates its raw share up front and its newly completed
// view slices at every checkpoint boundary to its ring neighbor
// ((rank+1) mod p), along with a manifest recording how far the build
// has progressed. All checkpoint I/O and communication is charged on
// the simulated clocks.
//
// When processor f crashes, the survivors shrink to p-1 ranks. The dead
// rank's ring neighbor holds its replicas and adopts them: the raw
// replica is appended to the neighbor's own share, the view replicas
// merged into its own sorted slices. The completed views are then
// rebalanced across the survivors with mergepart.Redistribute (the Case
// 3 step: presorted Adaptive–Sample–Sort — sampling, the h-relation
// and the p-way merge — then the boundary exchange), the checkpoint
// state is rebuilt on the shrunken ring so a
// further crash stays recoverable, and Procedure 1 restarts from the
// resume boundary. The adopted raw share is left imbalanced: every
// dimension iteration's Adaptive–Sample–Sort rebalances the Di-roots,
// which is where the real work happens.

import (
	"repro/internal/cluster"
	"repro/internal/colstore"
	"repro/internal/costmodel"
	"repro/internal/lattice"
	"repro/internal/mergepart"
	"repro/internal/record"
	"repro/internal/sketch"
)

// ckptPrefix names the neighbor-replica copy of a file.
const ckptPrefix = "ckpt.r."

// manifestFile is the per-processor checkpoint manifest: a one-column
// table whose first row is the resume dimension boundary and whose
// remaining rows are the completed view IDs.
const manifestFile = "ckpt.manifest"

// ckptFile is one file of a checkpoint set: its name, column count (so
// processors without the file can present an empty table of the right
// shape), and whether it is a sealed view slice — sealed files ship
// and land in the columnar compressed layout. sealed is decided by
// file kind (view vs raw/manifest), never per-disk state, so all
// processors agree on the collective they run (SPMD).
type ckptFile struct {
	name   string
	cols   int
	sealed bool
}

// lastCheckpointBoundary returns the dimension to restart from after a
// crash in dimension crashDim: the latest checkpointed boundary at or
// before it. The floor is startDim, covered by the initial raw
// checkpoint (or the previous recovery's re-replication).
func lastCheckpointBoundary(crashDim, startDim, interval int) int {
	resume := startDim
	for b := startDim; b < crashDim; b++ {
		if (b+1-startDim)%interval == 0 {
			resume = b + 1
		}
	}
	return resume
}

// completedViews lists the selected views of the dimension partitions
// before upTo — the views a restart from boundary upTo must preserve.
func completedViews(d int, sel []lattice.ViewID, upTo int) []lattice.ViewID {
	var out []lattice.ViewID
	for i := 0; i < upTo; i++ {
		out = append(out, lattice.PartitionSubset(i, d, sel)...)
	}
	return out
}

// writeManifest persists the checkpoint manifest locally (charged).
func writeManifest(p *cluster.Proc, upTo int, completed []lattice.ViewID, out *procOut) {
	t := record.New(1, 1+len(completed))
	t.Append([]uint32{uint32(upTo)}, 0)
	for _, v := range completed {
		t.Append([]uint32{uint32(v)}, 0)
	}
	out.ckptBytes += int64(t.Bytes())
	p.Disk().Put(manifestFile, t)
}

// replicateFiles sends each named file to the ring neighbor
// ((rank+1) mod p) over one bulk h-relation per file and stores the
// received copies under ckptPrefix. Reads, wire time, and replica
// writes are all charged. Every processor must pass the same file
// list (SPMD). On one processor there is no neighbor and replication
// is a no-op: the local manifest is the whole checkpoint.
func replicateFiles(p *cluster.Proc, files []ckptFile, out *procOut) {
	np := p.P()
	if np == 1 {
		return
	}
	disk := p.Disk()
	from := (p.Rank() + np - 1) % np
	for _, f := range files {
		if f.sealed {
			// View slices ship in the columnar compressed layout and are
			// stored compressed on the neighbor's disk.
			var s *colstore.Slice
			if disk.Has(f.name) {
				disk.Seal(f.name)
				s, _ = disk.GetSlice(f.name)
			}
			dest := make([]*colstore.Slice, np)
			dest[(p.Rank()+1)%np] = s
			in := cluster.AllToAllPayloads(p, dest, (*colstore.Slice).Clone)
			if r := in[from]; r != nil && r.Len() > 0 {
				disk.PutSlice(ckptPrefix+f.name, r)
				out.ckptBytes += int64(r.Bytes())
			}
			continue
		}
		var t *record.Table
		if disk.Has(f.name) {
			t = disk.MustGet(f.name)
		} else {
			t = record.New(f.cols, 0)
		}
		dest := make([]*record.Table, np)
		dest[(p.Rank()+1)%np] = t
		in := cluster.AllToAllTables(p, dest)
		if r := in[from]; r != nil {
			// Clone: the simulated wire carries the sender's live table.
			disk.Put(ckptPrefix+f.name, r.Clone())
			out.ckptBytes += int64(r.Bytes())
		}
	}
}

// checkpointInitial replicates the raw share before any real work, so
// a crash in any dimension can restart from the raw data.
func checkpointInitial(p *cluster.Proc, rawFile string, out *procOut) {
	writeManifest(p, 0, nil, out)
	replicateFiles(p, []ckptFile{
		{rawFile, p.Disk().Cols(rawFile), false},
		{manifestFile, 1, false},
	}, out)
}

// checkpointBoundary runs at the boundary after dimension upTo-1: the
// views completed since the previous checkpoint (dimensions
// [from, upTo)) are replicated to the ring neighbor and the manifest
// advanced to upTo.
func checkpointBoundary(p *cluster.Proc, cfg Config, sel []lattice.ViewID, from, upTo int, out *procOut) {
	var files []ckptFile
	for i := from; i < upTo; i++ {
		for _, v := range lattice.PartitionSubset(i, cfg.D, sel) {
			files = append(files, ckptFile{ViewFile(v), v.Count(), true})
		}
	}
	writeManifest(p, upTo, completedViews(cfg.D, sel, upTo), out)
	files = append(files, ckptFile{manifestFile, 1, false})
	replicateFiles(p, files, out)
}

// recoverOnProc is the SPMD recovery body run on the shrunken machine
// after a crash: detect, adopt, rebalance, re-arm. On return the
// survivors are ready to re-enter Procedure 1 at dimension resume.
func recoverOnProc(p *cluster.Proc, rawFile string, cfg Config, sel []lattice.ViewID, resume, adopter int, out *procOut) {
	disk := p.Disk()
	clk := p.Clock()
	p.SetOverlap(cfg.OverlapComm)
	// Failure detection: survivors notice the dead processor by a
	// heartbeat timeout before agreeing to recover.
	clk.AddCommDelay(cfg.Checkpoint.DetectSeconds)
	cluster.Barrier(p)
	start := clk.Seconds()
	p.SetPhase("recover")

	completed := completedViews(cfg.D, sel, resume)
	agg := sketch.Agg(cfg.Agg)

	// The dead rank's ring neighbor holds its replicas and adopts them:
	// the raw replica is appended to its own share, each completed view
	// replica merged into its own sorted slice (the slices cover
	// disjoint global key ranges, so a 2-way merge suffices).
	if p.Rank() == adopter {
		repl := disk.MustTake(ckptPrefix + rawFile)
		mine := disk.MustTake(rawFile)
		clk.AddCompute(costmodel.ScanOps(mine.Len() + repl.Len()))
		mine.AppendTable(repl)
		disk.Put(rawFile, mine)
		for _, v := range completed {
			name := ViewFile(v)
			r, ok := disk.Take(ckptPrefix + name)
			if !ok {
				r = record.New(v.Count(), 0)
			}
			own, ok := disk.Take(name)
			if !ok {
				own = record.New(v.Count(), 0)
			}
			clk.AddCompute(costmodel.MergeOps(own.Len()+r.Len(), 2))
			disk.Put(name, record.MergeSortedAggregateAgg([]*record.Table{own, r}, agg))
		}
	}

	// Drop everything the restart does not build on: stale replicas
	// (the ring is about to change), partially built views of
	// dimensions >= resume, and the old manifest.
	keep := map[string]bool{rawFile: true}
	for _, v := range completed {
		keep[ViewFile(v)] = true
	}
	for _, name := range disk.Files() {
		if !keep[name] {
			disk.Remove(name)
		}
	}
	// Every survivor must present each completed view for rebalancing,
	// even as an empty slice.
	for _, v := range completed {
		if !disk.Has(ViewFile(v)) {
			disk.Put(ViewFile(v), record.New(v.Count(), 0))
		}
	}

	// Rebalance the completed views — including the adopter's doubled
	// slices — across the survivors, then re-seal them: rebalancing
	// leaves slices in row form.
	for _, v := range completed {
		mergepart.Redistribute(p, ViewFile(v), cfg.MergeGamma, agg)
		if disk.Has(ViewFile(v)) {
			disk.Seal(ViewFile(v))
		}
	}

	// Re-arm the protocol on the shrunken ring so a further crash is
	// recoverable: fresh manifest, fresh replicas of the raw share and
	// every completed view.
	writeManifest(p, resume, completed, out)
	files := []ckptFile{{rawFile, cfg.D, false}}
	for _, v := range completed {
		files = append(files, ckptFile{ViewFile(v), v.Count(), true})
	}
	files = append(files, ckptFile{manifestFile, 1, false})
	replicateFiles(p, files, out)

	cluster.Barrier(p)
	out.recoverySeconds += clk.Seconds() - start
}
