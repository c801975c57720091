package sim

import (
	"math"
	"testing"

	"rckalign/internal/metrics"
)

// TestEngineMetrics: spawns, kills, wake-ups, callbacks and block
// durations are all counted, and enabling them does not change the
// simulated clock.
func TestEngineMetrics(t *testing.T) {
	run := func(reg *metrics.Registry) float64 {
		e := NewEngine()
		e.SetMetrics(reg)
		ch := NewChan("c")
		e.Spawn("sender", func(p *Process) {
			p.Wait(1)
			ch.Send(p, 42)
		})
		e.Spawn("receiver", func(p *Process) {
			if got := ch.Recv(p).(int); got != 42 {
				t.Errorf("recv = %v", got)
			}
		})
		victim := e.Spawn("victim", func(p *Process) { p.Wait(100) })
		e.After(0.5, func() { e.Kill(victim) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return e.Now()
	}

	reg := metrics.New()
	instrumented := run(reg)
	if bare := run(nil); bare != instrumented {
		t.Errorf("metrics changed the clock: %v vs %v", instrumented, bare)
	}
	if got := reg.Counter("sim.proc.spawned").Value(); got != 3 {
		t.Errorf("spawned = %v, want 3", got)
	}
	if got := reg.Counter("sim.proc.killed").Value(); got != 1 {
		t.Errorf("killed = %v, want 1", got)
	}
	if got := reg.Counter("sim.events.callbacks").Value(); got != 1 {
		t.Errorf("callbacks = %v, want 1", got)
	}
	if reg.Counter("sim.events.process_wakeups").Value() == 0 {
		t.Error("no wake-ups counted")
	}
	// The receiver blocked for 1 s waiting on the rendezvous.
	h := reg.Histogram("sim.proc.block_seconds", metrics.TimeBuckets)
	if h.Count() == 0 || h.MaxValue() != 1 {
		t.Errorf("block histogram count=%d max=%v, want max 1", h.Count(), h.MaxValue())
	}
	if got := reg.Counter("sim.proc.blocks").Value(); got != float64(h.Count()) {
		t.Errorf("blocks counter %v != histogram count %d", got, h.Count())
	}
}

// TestInfiniteTimeoutsScheduleNoTimer: an unbounded wait through any
// timeout-taking primitive (latch, rendezvous receive, queue get) is a
// plain wait — it must not leave a dead engine callback behind.
func TestInfiniteTimeoutsScheduleNoTimer(t *testing.T) {
	reg := metrics.New()
	e := NewEngine()
	e.SetMetrics(reg)
	inf := math.Inf(1)
	l, ch, q := NewLatch("l"), NewChan("c"), NewQueue("q")
	e.Spawn("waiter", func(p *Process) {
		if !l.WaitTimeout(p, inf) {
			t.Error("latch wait timed out")
		}
		if _, ok := ch.RecvTimeout(p, inf); !ok {
			t.Error("chan receive timed out")
		}
		if _, ok := q.GetTimeout(p, inf); !ok {
			t.Error("queue get timed out")
		}
	})
	e.Spawn("waker", func(p *Process) {
		p.Wait(1)
		l.Set()
		ch.Send(p, 1)
		p.Wait(1)
		q.Put(2)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("sim.events.callbacks").Value(); got != 0 {
		t.Errorf("callbacks = %v, want 0", got)
	}
}
