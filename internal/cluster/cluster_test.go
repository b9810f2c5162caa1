package cluster

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/record"
)

func newMachine(p int) *Machine { return New(p, costmodel.Default()) }

func TestRunExecutesAllProcessors(t *testing.T) {
	m := newMachine(8)
	var ran [8]int32
	m.Run(func(p *Proc) {
		atomic.AddInt32(&ran[p.Rank()], 1)
		if p.P() != 8 {
			t.Errorf("P() = %d, want 8", p.P())
		}
	})
	for i, r := range ran {
		if r != 1 {
			t.Fatalf("processor %d ran %d times", i, r)
		}
	}
}

func TestBroadcast(t *testing.T) {
	m := newMachine(5)
	var got [5]int
	m.Run(func(p *Proc) {
		val := -1
		if p.Rank() == 2 {
			val = 42
		}
		got[p.Rank()] = Broadcast(p, 2, val, 8)
	})
	for i, v := range got {
		if v != 42 {
			t.Fatalf("processor %d got %d, want 42", i, v)
		}
	}
}

func TestGather(t *testing.T) {
	m := newMachine(4)
	var atRoot []int
	m.Run(func(p *Proc) {
		res := Gather(p, 0, p.Rank()*10, 8)
		if p.Rank() == 0 {
			atRoot = res
		} else if res != nil {
			t.Errorf("non-root %d received %v", p.Rank(), res)
		}
	})
	for i, v := range atRoot {
		if v != i*10 {
			t.Fatalf("gathered[%d] = %d, want %d", i, v, i*10)
		}
	}
}

func TestAllGather(t *testing.T) {
	m := newMachine(4)
	var all [4][]int
	m.Run(func(p *Proc) {
		all[p.Rank()] = AllGather(p, p.Rank()+1, 8)
	})
	for r := 0; r < 4; r++ {
		for i, v := range all[r] {
			if v != i+1 {
				t.Fatalf("proc %d allgather[%d] = %d, want %d", r, i, v, i+1)
			}
		}
	}
}

func TestAllToAll(t *testing.T) {
	p := 4
	m := newMachine(p)
	var got [4][]int
	m.Run(func(pr *Proc) {
		out := make([]int, p)
		for k := range out {
			out[k] = pr.Rank()*100 + k // message "from rank to k"
		}
		got[pr.Rank()] = AllToAll(pr, out, func(int) int { return 8 })
	})
	for me := 0; me < p; me++ {
		for j := 0; j < p; j++ {
			if got[me][j] != j*100+me {
				t.Fatalf("proc %d from %d = %d, want %d", me, j, got[me][j], j*100+me)
			}
		}
	}
}

func TestAllToAllTables(t *testing.T) {
	p := 3
	m := newMachine(p)
	var total [3]int64
	m.Run(func(pr *Proc) {
		out := make([]*record.Table, p)
		for k := range out {
			tb := record.New(1, 1)
			tb.Append([]uint32{uint32(pr.Rank())}, int64(k))
			out[k] = tb
		}
		out[(pr.Rank()+1)%p] = nil // nil payloads allowed
		in := AllToAllTables(pr, out)
		var sum int64
		for _, tb := range in {
			if tb != nil {
				sum += tb.TotalMeasure()
			}
		}
		total[pr.Rank()] = sum
	})
	// Each processor k receives measure k from every sender that kept it.
	for me := 0; me < p; me++ {
		var want int64
		for src := 0; src < p; src++ {
			if (src+1)%p != me {
				want += int64(me)
			}
		}
		if total[me] != want {
			t.Fatalf("proc %d total = %d, want %d", me, total[me], want)
		}
	}
}

func TestReduceAndAllReduce(t *testing.T) {
	m := newMachine(6)
	var red [6]int
	var allred [6]int
	m.Run(func(p *Proc) {
		red[p.Rank()] = Reduce(p, 0, p.Rank()+1, 8, func(a, b int) int { return a + b })
		allred[p.Rank()] = AllReduce(p, p.Rank()+1, 8, func(a, b int) int { return a + b })
	})
	if red[0] != 21 {
		t.Fatalf("Reduce at root = %d, want 21", red[0])
	}
	for i := 1; i < 6; i++ {
		if red[i] != 0 {
			t.Fatalf("Reduce at non-root %d = %d, want 0", i, red[i])
		}
	}
	for i, v := range allred {
		if v != 21 {
			t.Fatalf("AllReduce at %d = %d, want 21", i, v)
		}
	}
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	m := newMachine(3)
	m.Run(func(p *Proc) {
		// Processor 1 does much more local work.
		if p.Rank() == 1 {
			p.Clock().AddCompute(12e6) // 1 second at default rate
		}
		Barrier(p)
	})
	// After the barrier all clocks advanced to the slowest.
	for i := 0; i < 3; i++ {
		if s := m.Proc(i).Clock().Seconds(); s < 0.99 {
			t.Fatalf("processor %d clock %v, want >= ~1s", i, s)
		}
	}
	if m.SimSeconds() < 0.99 {
		t.Fatalf("SimSeconds = %v", m.SimSeconds())
	}
}

func TestCommunicationChargesTime(t *testing.T) {
	m := newMachine(2)
	payload := 12_500_000 // 1 second at default 12.5 MB/s
	m.Run(func(p *Proc) {
		out := make([]*record.Table, 2)
		tb := record.New(0, payload/record.RowBytes(0))
		for i := 0; i < payload/record.RowBytes(0); i++ {
			tb.Append(nil, 1)
		}
		out[1-p.Rank()] = tb
		AllToAllTables(p, out)
	})
	for i := 0; i < 2; i++ {
		if c := m.Proc(i).Clock().CommSeconds(); c < 0.9 {
			t.Fatalf("processor %d comm seconds = %v, want ~1", i, c)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	m := newMachine(4)
	m.Run(func(p *Proc) {
		p.SetPhase("merge")
		out := make([]int, 4)
		AllToAll(p, out, func(int) int { return 100 })
		p.SetPhase("")
		Barrier(p)
	})
	st := m.Stats()
	// Each of 4 procs sends 3 off-rank payloads of 100 bytes.
	if st.BytesMoved != 1200 {
		t.Fatalf("BytesMoved = %d, want 1200", st.BytesMoved)
	}
	if st.Messages != 12 {
		t.Fatalf("Messages = %d, want 12", st.Messages)
	}
	if st.ByPhase["merge"] != 1200 {
		t.Fatalf("ByPhase[merge] = %d, want 1200", st.ByPhase["merge"])
	}
	if st.Supersteps != 2 {
		t.Fatalf("Supersteps = %d, want 2", st.Supersteps)
	}
}

func TestLocalDeliveryIsFree(t *testing.T) {
	m := newMachine(1)
	m.Run(func(p *Proc) {
		in := AllToAll(p, []int{7}, func(int) int { return 1 << 20 })
		if in[0] != 7 {
			t.Errorf("self-delivery failed: %v", in)
		}
	})
	if st := m.Stats(); st.BytesMoved != 0 {
		t.Fatalf("BytesMoved = %d, want 0 for self-delivery", st.BytesMoved)
	}
}

func TestPanicPropagatesWithoutDeadlock(t *testing.T) {
	m := newMachine(4)
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(p *Proc) {
			if p.Rank() == 2 {
				panic("boom")
			}
			Barrier(p) // others would deadlock here without abort support
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected error from Run")
		}
		if !strings.Contains(err.Error(), "processor 2") {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked after mid-superstep panic")
	}
}

func TestPanicReleasesOverlappedCommWaiters(t *testing.T) {
	// A processor dying while peers hold unsettled overlapped
	// communication must still release every barrier waiter, and the
	// machine must stay usable for a follow-up run.
	m := newMachine(4)
	done := make(chan error, 1)
	go func() {
		done <- m.Run(func(p *Proc) {
			p.SetOverlap(true)
			out := make([]int, 4)
			for k := range out {
				out[k] = p.Rank()
			}
			AllToAll(p, out, func(int) int { return 1 << 16 })
			if p.Rank() == 1 {
				panic("mid-overlap crash")
			}
			Barrier(p) // overlapped comm is still unsettled here
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected error from Run")
		}
		if !strings.Contains(err.Error(), "processor 1") {
			t.Fatalf("unexpected error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked after panic with unsettled overlapped comm")
	}
	// The barrier must have been reset: a clean run still works.
	if err := m.Run(func(p *Proc) { Barrier(p) }); err != nil {
		t.Fatalf("machine unusable after aborted run: %v", err)
	}
}

func TestProcDisksAreIndependent(t *testing.T) {
	m := newMachine(3)
	m.Run(func(p *Proc) {
		tb := record.New(1, 1)
		tb.Append([]uint32{uint32(p.Rank())}, 1)
		p.Disk().Put("mine", tb)
	})
	for i := 0; i < 3; i++ {
		tb := m.Proc(i).Disk().MustGet("mine")
		if tb.Dim(0, 0) != uint32(i) {
			t.Fatalf("disk %d holds %v", i, tb)
		}
	}
}

// TestAllToAllReceiveSkewCharge is the regression test for the
// h-relation undercharge: a processor that sends nothing but receives
// a large payload must be charged max(sent, recv) = recv, not 0.
func TestAllToAllReceiveSkewCharge(t *testing.T) {
	m := newMachine(2)
	payload := 12_500_000 // 1 second at default 12.5 MB/s
	m.Run(func(p *Proc) {
		out := make([]int, 2)
		if p.Rank() == 0 {
			out[1] = payload
		}
		AllToAll(p, out, func(v int) int { return v })
	})
	// Processor 1 sent 0 bytes and received the full payload: its
	// h-relation charge is the receive side.
	if c := m.Proc(1).Clock().CommSeconds(); c < 0.9 {
		t.Fatalf("receive-skewed processor charged %v comm seconds, want ~1 (max(sent, recv))", c)
	}
	if c := m.Proc(0).Clock().CommSeconds(); c < 0.9 {
		t.Fatalf("sender charged %v comm seconds, want ~1", c)
	}
}

// TestCollectiveAccounting checks every collective's h-relation charge
// against hand-computed per-processor sent/recv byte counts.
func TestCollectiveAccounting(t *testing.T) {
	type charge struct{ sent, recv, msgs int }
	cases := []struct {
		name string
		p    int
		body func(p *Proc)
		want []charge // indexed by rank
	}{
		{
			name: "Broadcast",
			p:    3,
			body: func(p *Proc) {
				v := 0
				if p.Rank() == 1 {
					v = 7
				}
				Broadcast(p, 1, v, 1000)
			},
			want: []charge{{0, 1000, 0}, {2000, 0, 2}, {0, 1000, 0}},
		},
		{
			name: "BroadcastEmptyPayload",
			p:    3,
			body: func(p *Proc) {
				// Degenerate pivot broadcast: the root posts 0 bytes, so
				// nobody is charged, whatever non-roots guessed.
				bytes := 0
				if p.Rank() != 0 {
					bytes = 999
				}
				Broadcast(p, 0, []int(nil), bytes)
			},
			want: []charge{{0, 0, 0}, {0, 0, 0}, {0, 0, 0}},
		},
		{
			name: "GatherUnevenSizes",
			p:    3,
			body: func(p *Proc) {
				// Sender j contributes 100*(j+1) bytes; the root's receive
				// charge is the sum actually posted, not a guess.
				Gather(p, 0, p.Rank(), 100*(p.Rank()+1))
			},
			want: []charge{{0, 500, 0}, {200, 0, 1}, {300, 0, 1}},
		},
		{
			name: "AllGather",
			p:    4,
			body: func(p *Proc) {
				AllGather(p, p.Rank(), 50)
			},
			want: []charge{{150, 150, 3}, {150, 150, 3}, {150, 150, 3}, {150, 150, 3}},
		},
		{
			name: "AllToAll",
			p:    3,
			body: func(p *Proc) {
				// Wire sizes b[src][dst]; bytesOf is the payload itself.
				b := [3][3]int{
					{0, 100, 200},
					{0, 0, 0},
					{50, 0, 0},
				}
				AllToAll(p, b[p.Rank()][:], func(v int) int { return v })
			},
			want: []charge{{300, 50, 2}, {0, 100, 0}, {50, 200, 1}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := newMachine(tc.p)
			m.Run(tc.body)
			params := m.Params()
			var wantMoved int64
			for r, w := range tc.want {
				h := w.sent
				if w.recv > h {
					h = w.recv
				}
				want := float64(h)/params.NetBandwidth + float64(w.msgs)*params.NetLatency
				got := m.Proc(r).Clock().CommSeconds()
				if diff := got - want; diff > 1e-12 || diff < -1e-12 {
					t.Errorf("proc %d comm seconds = %v, want %v (h=%d msgs=%d)", r, got, want, h, w.msgs)
				}
				wantMoved += int64(w.sent)
			}
			if st := m.Stats(); st.BytesMoved != wantMoved {
				t.Errorf("BytesMoved = %d, want %d", st.BytesMoved, wantMoved)
			}
		})
	}
}

// TestOverlapMasksCommBehindCompute checks the §4.1 post-then-continue
// semantics: with overlap enabled, an AllToAll charge is absorbed by
// subsequent compute, and only the unmasked remainder reaches the
// makespan.
func TestOverlapMasksCommBehindCompute(t *testing.T) {
	run := func(overlap bool) *Machine {
		m := newMachine(2)
		payload := 12_500_000 // 1 second of comm
		m.Run(func(p *Proc) {
			p.SetOverlap(overlap)
			out := make([]int, 2)
			out[1-p.Rank()] = payload
			AllToAll(p, out, func(v int) int { return v })
			p.Clock().AddCompute(2e6) // 2 seconds of local work
			Barrier(p)
		})
		return m
	}
	base, ov := run(false), run(true)
	// Baseline: 1s comm + 2s compute. Overlapped: the transfer hides
	// entirely behind the compute, so ~1s is saved.
	if d := base.SimSeconds() - ov.SimSeconds(); d < 0.9 {
		t.Fatalf("overlap saved %v seconds, want ~1 (base %v, overlap %v)",
			d, base.SimSeconds(), ov.SimSeconds())
	}
	clk := ov.Proc(0).Clock()
	if o := clk.OverlappedCommSeconds(); o < 0.9 {
		t.Fatalf("OverlappedCommSeconds = %v, want ~1", o)
	}
	// The comm component still records the full transfer.
	if c := clk.CommSeconds(); c < 0.9 {
		t.Fatalf("CommSeconds = %v, want ~1 even when masked", c)
	}
	// Nothing is left in flight: settling advances nothing.
	before := clk.Seconds()
	clk.SettleComm()
	if clk.Seconds() != before {
		t.Fatalf("settling after the run advanced the clock %v -> %v", before, clk.Seconds())
	}
}

// TestOverlapSettlesAtBarrier: with no local work between the exchange
// and the next barrier there is nothing to hide behind, so overlap mode
// must cost the same as synchronous mode.
func TestOverlapSettlesAtBarrier(t *testing.T) {
	run := func(overlap bool) *Machine {
		m := newMachine(2)
		payload := 12_500_000
		m.Run(func(p *Proc) {
			p.SetOverlap(overlap)
			out := make([]int, 2)
			out[1-p.Rank()] = payload
			AllToAll(p, out, func(v int) int { return v })
			Barrier(p)
		})
		return m
	}
	base, ov := run(false), run(true)
	if d := base.SimSeconds() - ov.SimSeconds(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("no local work, yet overlap changed the makespan by %v", d)
	}
	if o := ov.Proc(0).Clock().OverlappedCommSeconds(); o != 0 {
		t.Fatalf("OverlappedCommSeconds = %v with nothing to overlap", o)
	}
}

// TestOverlapSettledAtRunEnd: in-flight communication when the SPMD
// body returns must still reach the makespan.
func TestOverlapSettledAtRunEnd(t *testing.T) {
	m := newMachine(2)
	payload := 12_500_000
	m.Run(func(p *Proc) {
		p.SetOverlap(true)
		out := make([]int, 2)
		out[1-p.Rank()] = payload
		AllToAll(p, out, func(v int) int { return v })
		// Body ends with the transfer still pending.
	})
	if s := m.SimSeconds(); s < 0.9 {
		t.Fatalf("SimSeconds = %v, want ~1: pending comm must settle at run end", s)
	}
}

// TestOverlapDoesNotApplyToControlCollectives: Broadcast/Gather/
// AllGather results gate the computation that follows, so they stay
// synchronous even in overlapped mode.
func TestOverlapDoesNotApplyToControlCollectives(t *testing.T) {
	m := newMachine(2)
	m.Run(func(p *Proc) {
		p.SetOverlap(true)
		Broadcast(p, 0, 1, 12_500_000)
		AllGather(p, p.Rank(), 12_500_000)
		p.Clock().AddCompute(10e6)
	})
	for r := 0; r < 2; r++ {
		if o := m.Proc(r).Clock().OverlappedCommSeconds(); o != 0 {
			t.Fatalf("proc %d overlapped %v seconds of control-collective comm", r, o)
		}
	}
}

func TestManySuperstepsStress(t *testing.T) {
	m := newMachine(8)
	m.Run(func(p *Proc) {
		for i := 0; i < 200; i++ {
			v := AllReduce(p, 1, 4, func(a, b int) int { return a + b })
			if v != 8 {
				t.Errorf("round %d: AllReduce = %d", i, v)
				return
			}
		}
	})
}
