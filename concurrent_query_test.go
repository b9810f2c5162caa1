package rolap

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cluster"
	"repro/internal/record"
	"repro/internal/simdisk"
)

// TestConcurrentQueriesMatchOracle runs eight clients through Cube.Do
// and Server.Do while ingest batches commit and the advisor materializes
// and retires views. Every answer must equal the gather oracle after
// one of the batch counts the query could have seen: those committed
// when it was sent, up to one past those committed when it returned
// (a batch's data switches inside the engine's maintenance lock, its
// commit is counted just after).
//
// Then two copies of the resulting cube, loaded from one snapshot, run
// the same query-only list, one sequentially and one from eight
// clients: every integer counter the list adds — machine bytes,
// messages, supersteps, the query phase's bytes, each disk's reads and
// bytes read, rows scanned — must be the same.
func TestConcurrentQueriesMatchOracle(t *testing.T) {
	const base, batches, per, clients = 600, 4, 40, 8
	rows, meas := randomFacts(base+batches*per, 91)
	opts := Options{Processors: 3, SelectedViews: [][]string{
		{"month", "store", "product", "channel"}, {"store", "channel"}, {"month"}, {},
	}}
	rng := rand.New(rand.NewSource(17))
	queries := make([]Query, 40)
	for i := range queries {
		queries[i] = randomQuery(rng, nil)
	}
	batch := func(b int) ([][]uint32, []int64) {
		return rows[base+b*per : base+(b+1)*per], meas[base+b*per : base+(b+1)*per]
	}

	// want[b][i] is the gather oracle's answer to query i after b batches.
	ref := buildFromFacts(t, rows[:base], meas[:base], opts)
	want := make([][]*View, batches+1)
	for b := 0; b <= batches; b++ {
		if b > 0 {
			if _, err := ref.Ingest(batch(b - 1)); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range queries {
			v, err := ref.gatherQuery(q)
			if err != nil {
				t.Fatal(err)
			}
			want[b] = append(want[b], v)
		}
	}

	changed := 0
	for i := range queries {
		if !record.Equal(want[0][i].rows, want[batches][i].rows) {
			changed++
		}
	}
	if changed < len(queries)/2 {
		t.Fatalf("the batches change only %d of %d answers", changed, len(queries))
	}

	cube := buildFromFacts(t, rows[:base], meas[:base], opts)
	var committed atomic.Int64
	cube.ingMu.Lock()
	cube.addCommitHookLocked(func([][]uint32, []int64) { committed.Add(1) })
	cube.ingMu.Unlock()
	srv, err := cube.NewServer(ServerOptions{Workers: clients, QueueDepth: 4 * clients})
	if err != nil {
		t.Fatal(err)
	}
	adv, err := cube.NewAdvisor(AdvisorOptions{Seed: 3, MaxViews: 6, MinFallbacks: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	var wg sync.WaitGroup
	errc := make(chan error, clients+2)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			door, name := Querier(cube), "Cube"
			if c%2 == 1 {
				door, name = srv, "Server"
			}
			for k := 0; k < 3*len(queries); k++ {
				i := (c*7 + k) % len(queries)
				before := committed.Load()
				got, _, err := door.Do(ctx, queries[i])
				after := min(committed.Load()+1, batches)
				if err != nil {
					errc <- fmt.Errorf("%s query %d: %w", name, i, err)
					return
				}
				ok := false
				for b := before; b <= after && !ok; b++ {
					ok = record.Equal(got.rows, want[b][i].rows)
				}
				if !ok {
					errc <- fmt.Errorf("%s query %d %+v: answer matches no batch count in [%d, %d]: %v",
						name, i, queries[i], before, after, got.rows)
					return
				}
			}
		}(c)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for b := 0; b < batches; b++ {
			if _, err := cube.Ingest(batch(b)); err != nil {
				errc <- err
				return
			}
			if _, err := cube.Flush(); err != nil {
				errc <- err
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, err := adv.Step(); err != nil {
				errc <- fmt.Errorf("advisor: %w", err)
				return
			}
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}

	var snap bytes.Buffer
	if err := cube.Save(&snap); err != nil {
		t.Fatal(err)
	}
	load := func() *Cube {
		c, err := LoadCube(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	seq, par := load(), load()
	seqCounters := queryCounters(t, seq, func() int64 {
		var scanned int64
		for _, q := range queries {
			_, qm, err := seq.Do(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			scanned += qm.RowsScanned
		}
		return scanned
	})
	psrv, err := par.NewServer(ServerOptions{Workers: clients, CacheSize: -1, NoCoalesce: true})
	if err != nil {
		t.Fatal(err)
	}
	parCounters := queryCounters(t, par, func() int64 {
		var scanned atomic.Int64
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				door := Querier(par)
				if c%2 == 1 {
					door = psrv
				}
				for i := c; i < len(queries); i += clients {
					_, qm, err := door.Do(ctx, queries[i])
					if err != nil {
						t.Error(err)
						return
					}
					scanned.Add(qm.RowsScanned)
				}
			}(c)
		}
		wg.Wait()
		return scanned.Load()
	})
	if parCounters != seqCounters {
		t.Fatalf("concurrent query counters %+v, sequential %+v", parCounters, seqCounters)
	}
}

// counters are the integer charges a query phase adds to a cube.
type counters struct {
	bytesMoved, messages, supersteps, queryPhase int64
	reads                                        [3]int
	bytesRead                                    [3]int64
	rowsScanned                                  int64
}

// queryCounters runs phase on c (which returns the rows it scanned)
// and returns the integer counters it added.
func queryCounters(t *testing.T, c *Cube, phase func() int64) counters {
	t.Helper()
	snap := func() (cluster.Stats, []simdisk.Stats) {
		var ds []simdisk.Stats
		for r := 0; r < c.machine.P(); r++ {
			ds = append(ds, c.machine.Proc(r).Disk().Stats())
		}
		return c.machine.Stats(), ds
	}
	m0, d0 := snap()
	out := counters{rowsScanned: phase()}
	m1, d1 := snap()
	out.bytesMoved = m1.BytesMoved - m0.BytesMoved
	out.messages = m1.Messages - m0.Messages
	out.supersteps = m1.Supersteps - m0.Supersteps
	out.queryPhase = m1.ByPhase["query"] - m0.ByPhase["query"]
	for r := range d1 {
		out.reads[r] = d1[r].Reads - d0[r].Reads
		out.bytesRead[r] = d1[r].BytesRead - d0[r].BytesRead
	}
	return out
}
