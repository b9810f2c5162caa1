package rolap

import "repro/internal/core"

// Metrics summarizes a cube build on the simulated cluster. Simulated
// seconds are in the selected Hardware's cost model (they reproduce
// the paper's 2003 Beowulf timings by default), independent of the
// host machine.
type Metrics struct {
	// Processors is the shared-nothing machine size.
	Processors int
	// SimSeconds is the simulated parallel wall-clock time.
	SimSeconds float64
	// PhaseSeconds breaks the makespan into the algorithm's phases:
	// "partition", "plan", "build", "merge".
	PhaseSeconds map[string]float64
	// BytesMoved is the total network volume.
	BytesMoved int64
	// MergeBytes is the network volume of the Merge–Partitions phase
	// (the paper's Figure 8b metric).
	MergeBytes int64
	// OutputRows and OutputBytes size the materialized cube in row
	// format; OutputBytesStored is the modelled on-disk footprint after
	// columnar compression.
	OutputRows        int64
	OutputBytes       int64
	OutputBytesStored int64
	// CommSeconds is the communication component of the makespan;
	// MaskableCommFraction bounds the §4.1 overlap optimization.
	// OverlappedCommSeconds is the communication actually masked behind
	// local work (non-zero only with Options.OverlapComm).
	CommSeconds           float64
	MaskableCommFraction  float64
	OverlappedCommSeconds float64
	// Shifts counts sample-sort global shifts; Resorts counts merge
	// re-sorts (non-zero only with local schedule trees).
	Shifts  int
	Resorts int
	// ViewRows maps each view (comma-joined sorted dimension names,
	// "" for the grand total) to its global row count.
	ViewRows map[string]int64
	// RetriedMessages counts h-relation payloads retransmitted to
	// repair injected drops and corruptions (Options.Faults).
	RetriedMessages int64
	// CheckpointBytes is the total bytes written to checkpoint state
	// (neighbor replicas and manifests) across all processors, and
	// CheckpointSeconds the checkpoint phase's makespan contribution
	// (non-zero only with Options.Checkpoint.Enabled).
	CheckpointBytes   int64
	CheckpointSeconds float64
	// RecoverySeconds is the time spent recovering from crashes
	// (failure detection, replica adoption, rebalancing), and
	// FailedProcessors the original ranks of the processors whose
	// crashes the build survived.
	RecoverySeconds  float64
	FailedProcessors []int
	// IngestedRows and IngestBatches count facts and batches applied by
	// incremental maintenance (Cube.Ingest) since the build.
	IngestedRows  int64
	IngestBatches int64
	// IngestSeconds is the simulated time spent building sorted deltas
	// ("ingest" phase); DeltaMergeSeconds and DeltaMergeBytes are the
	// makespan and network volume of merging deltas into the live views
	// ("deltamerge" phase). SimSeconds and BytesMoved include both.
	IngestSeconds     float64
	DeltaMergeSeconds float64
	DeltaMergeBytes   int64
	// SketchBytes is the serialized size of the sketch state backing a
	// holistic cube's group measures after the build; ViewSketchBytes
	// is the per-view breakdown (same keys as ViewRows). Zero for
	// algebraic cubes.
	SketchBytes     int64
	ViewSketchBytes map[string]int64
}

// ReplicaStats are one read replica's replication progress and serving
// counters.
type ReplicaStats struct {
	// State is "live" (within the staleness bound), "catchingup"
	// (running but beyond it), "down" (crashed, re-bootstrapping), or
	// "failed" (retired permanently).
	State string
	// Breaker is the replica's circuit-breaker state: "closed",
	// "open", "half-open", or "disabled".
	Breaker string
	// Applied is the last leader batch sequence applied; Lag is the
	// replica's distance behind the leader in batches.
	Applied uint64
	Lag     uint64
	// Routed counts reads ever routed to this replica (survives
	// re-bootstraps).
	Routed int64
	// Bootstraps counts snapshot loads (1 for a replica that never
	// crashed); Crashes counts failures, injected or real.
	Bootstraps int64
	Crashes    int64
	// Server holds the replica's query-server counters. A re-bootstrap
	// replaces the server, so these reset when a replica crashes.
	Server ServerStats
}

// ReplicaSetStats snapshot a replica set's replication and serving
// state.
type ReplicaSetStats struct {
	// LeaderSeq is the leader's last committed batch sequence;
	// SnapshotSeq the sequence of the current bootstrap snapshot;
	// DeltaLogLen the number of retained (uncompacted) delta-log
	// batches.
	LeaderSeq   uint64
	SnapshotSeq uint64
	DeltaLogLen int
	// Routed counts reads routed across all replicas; StalenessWaits
	// counts reads that had to block because no replica was within the
	// staleness bound.
	Routed         int64
	StalenessWaits int64
	// SnapshotShipBytes totals the snapshot bytes shipped to bootstrap
	// replicas (initial bootstraps plus crash-recovery re-bootstraps);
	// DeltaShipBytes totals the modelled on-wire bytes of shipped delta
	// batches: snapshots ship as columnar images and delta batches ship
	// compressed.
	SnapshotShipBytes int64
	DeltaShipBytes    int64
	// Resilience totals the serving path's failure-policy activity.
	Resilience ResilienceStats
	// Replicas has one entry per replica, by index.
	Replicas []ReplicaStats
	// LeaderServer holds the leader fallback server's counters (zero
	// when fallback is disabled). Queries here were served by the
	// leader's own cube because no replica could take them.
	LeaderServer ServerStats
}

// ResilienceStats total the replica set's failure-policy activity:
// what the retry, breaker, hedging, and fallback machinery actually
// did. All counters are cumulative over the set's lifetime.
type ResilienceStats struct {
	// Retries counts failover retries (a query re-attempted on a
	// different replica after a failure or overload); Failovers counts
	// queries that ultimately succeeded on a replica other than their
	// first. Retries >= Failovers.
	Retries   int64
	Failovers int64
	// LeaderFallbacks counts queries served by the leader's own cube
	// because no replica could take them (all crashed/retired, retries
	// exhausted, or none eligible within the failover wait).
	LeaderFallbacks int64
	// HedgesLaunched counts second attempts started because the first
	// exceeded the latency threshold; HedgesWon of those finished
	// first, HedgesLost lost the race to the original.
	HedgesLaunched int64
	HedgesWon      int64
	HedgesLost     int64
	// ServeCrashes counts injected serving-time replica crashes
	// observed by the read path (ReplicaOptions.ServeFaults).
	ServeCrashes int64
	// BreakerOpens, BreakerProbes, and BreakerCloses total the
	// per-replica circuit-breaker transitions.
	BreakerOpens  int64
	BreakerProbes int64
	BreakerCloses int64
}

// Metrics returns the cube's cumulative metrics (the build plus every
// applied ingest batch). The maps are copies, stable against later
// batches.
func (c *Cube) Metrics() Metrics {
	c.metMu.RLock()
	defer c.metMu.RUnlock()
	m := c.metrics
	if c.metrics.PhaseSeconds != nil {
		m.PhaseSeconds = make(map[string]float64, len(c.metrics.PhaseSeconds))
		for k, v := range c.metrics.PhaseSeconds {
			m.PhaseSeconds[k] = v
		}
	}
	if c.metrics.ViewRows != nil {
		m.ViewRows = make(map[string]int64, len(c.metrics.ViewRows))
		for k, v := range c.metrics.ViewRows {
			m.ViewRows[k] = v
		}
	}
	m.FailedProcessors = append([]int(nil), c.metrics.FailedProcessors...)
	if c.metrics.ViewSketchBytes != nil {
		m.ViewSketchBytes = make(map[string]int64, len(c.metrics.ViewSketchBytes))
		for k, v := range c.metrics.ViewSketchBytes {
			m.ViewSketchBytes[k] = v
		}
	}
	return m
}

// DecodedBytes returns the row-form bytes held in the decode caches of
// the cube's sealed view slices, summed over every processor's disk. A
// slice decodes on its first full read (a scan, View, an ingest merge)
// and keeps the row form; with Metrics().OutputBytesStored, the
// compressed size, it accounts for the cube's resident set.
func (c *Cube) DecodedBytes() int64 {
	var n int64
	c.engine.Maintain(func() error {
		for r := 0; r < c.machine.P(); r++ {
			n += c.machine.Proc(r).Disk().DecodedBytes()
		}
		return nil
	})
	return n
}

func publicMetrics(in *Input, met core.Metrics) Metrics {
	m := Metrics{
		Processors:            met.P,
		SimSeconds:            met.SimSeconds,
		PhaseSeconds:          met.PhaseSeconds,
		BytesMoved:            met.BytesMoved,
		MergeBytes:            met.BytesByPhase["merge"],
		OutputRows:            met.OutputRows,
		OutputBytes:           met.OutputBytes,
		OutputBytesStored:     met.OutputBytesStored,
		CommSeconds:           met.CommSeconds,
		MaskableCommFraction:  met.MaskableCommFraction(),
		OverlappedCommSeconds: met.OverlappedCommSeconds,
		Shifts:                met.Shifts,
		Resorts:               met.Resorts,
		ViewRows:              make(map[string]int64, len(met.ViewRows)),
		RetriedMessages:       met.RetriedMessages,
		CheckpointBytes:       met.CheckpointBytes,
		CheckpointSeconds:     met.CheckpointSeconds,
		RecoverySeconds:       met.RecoverySeconds,
		FailedProcessors:      met.FailedRanks,
	}
	for v, rows := range met.ViewRows {
		m.ViewRows[viewName(in, v)] = rows
	}
	m.SketchBytes = met.SketchBytes
	if len(met.ViewSketchBytes) > 0 {
		m.ViewSketchBytes = make(map[string]int64, len(met.ViewSketchBytes))
		for v, b := range met.ViewSketchBytes {
			m.ViewSketchBytes[viewName(in, v)] = b
		}
	}
	return m
}
