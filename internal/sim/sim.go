// Package sim is a deterministic discrete-event simulation engine with
// SimPy-style coroutine processes. It provides the virtual clock under
// the SCC chip model: simulated cores are processes that Wait() for the
// durations charged by the cost model and exchange messages through
// rendezvous channels whose transfer latencies model the on-chip mesh.
//
// Exactly one goroutine (the engine's or one process's) runs at any
// moment, and events at equal times fire in schedule order, so runs are
// fully deterministic.
//
// Fault-injection support: a process can be fail-stopped (Engine.Kill)
// or transiently stalled (Engine.StallUntil) from a scheduled callback.
// A killed process unwinds out of whatever it is blocked on and leaves
// the live set, so it neither resumes nor counts as deadlocked; the
// synchronization primitives in sync.go lazily skip dead waiters.
package sim

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"strings"

	"rckalign/internal/metrics"
)

// event is a scheduled wake-up of a process or a callback.
type event struct {
	t   float64
	seq int64
	p   *Process
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].t != h[j].t {
		return h[i].t < h[j].t
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any     { old := *h; n := len(old); e := old[n-1]; *h = old[:n-1]; return e }

// Engine owns the virtual clock and the event queue.
type Engine struct {
	now    float64
	events eventHeap
	seq    int64
	park   chan struct{}
	live   map[*Process]bool
	runner *Process // process currently executing (nil = engine)

	// Instrument handles, nil unless SetMetrics installed a registry;
	// every record call is a nil-safe no-op when disabled.
	mWakes     *metrics.Counter
	mCallbacks *metrics.Counter
	mSpawns    *metrics.Counter
	mKills     *metrics.Counter
	mBlocks    *metrics.Counter
	hBlock     *metrics.Histogram
}

// SetMetrics installs a metrics registry: the engine then counts event
// dispatches (process wake-ups vs callbacks), spawns, kills and process
// blocks, and records block durations as a histogram — all in simulated
// time. Passing nil disables recording again.
func (e *Engine) SetMetrics(reg *metrics.Registry) {
	e.mWakes = reg.Counter("sim.events.process_wakeups")
	e.mCallbacks = reg.Counter("sim.events.callbacks")
	e.mSpawns = reg.Counter("sim.proc.spawned")
	e.mKills = reg.Counter("sim.proc.killed")
	e.mBlocks = reg.Counter("sim.proc.blocks")
	e.hBlock = reg.Histogram("sim.proc.block_seconds", metrics.TimeBuckets)
}

// NewEngine returns an empty engine at time 0.
func NewEngine() *Engine {
	return &Engine{park: make(chan struct{}), live: map[*Process]bool{}}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn at absolute time t (>= Now).
func (e *Engine) Schedule(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	heap.Push(&e.events, event{t: t, seq: e.seq, fn: fn})
}

// After runs fn after delay d.
func (e *Engine) After(d float64, fn func()) { e.Schedule(e.now+d, fn) }

func (e *Engine) scheduleProc(t float64, p *Process) {
	e.seq++
	heap.Push(&e.events, event{t: t, seq: e.seq, p: p})
}

// killSentinel is the panic value that unwinds a killed process's
// goroutine; the Spawn wrapper recovers it.
type killSentinel struct{}

// Process is a simulated thread of control. Its methods must only be
// called from within its own body function.
type Process struct {
	e      *Engine
	name   string
	resume chan struct{}
	done   bool
	// killed marks a fail-stopped process; its next wake-up unwinds the
	// goroutine instead of resuming the body.
	killed bool
	// stallUntil defers any wake-up scheduled to fire before it (a
	// transient core stall).
	stallUntil float64
	// blockedOp and blockedOn mark a process parked on a channel or
	// resource (not in the event queue), for deadlock diagnostics: the
	// primitive kind ("recv") and its name. They are joined only when a
	// deadlock is reported, so blocking allocates no label.
	blockedOp, blockedOn string
	// detailFormat and detailArgs are optional caller-supplied context
	// for the current blocking operation (e.g. an rcce transfer's
	// src->dst and byte count), formatted only for DeadlockError.
	detailFormat string
	detailArgs   []any
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// Engine returns the owning engine.
func (p *Process) Engine() *Engine { return p.e }

// Now returns the current simulated time.
func (p *Process) Now() float64 { return p.e.now }

// Killed reports whether the process has been fail-stopped.
func (p *Process) Killed() bool { return p.killed }

// Done reports whether the process has finished (returned or killed).
func (p *Process) Done() bool { return p.done }

// SetBlockDetail attaches human-readable context to the process's next
// blocking operations; it appears in DeadlockError reports. Pass ""
// to clear. Callers should clear it once the guarded operation returns.
func (p *Process) SetBlockDetail(detail string) { p.detailFormat, p.detailArgs = detail, nil }

// SetBlockDetailf is SetBlockDetail with the detail given as a format
// and arguments, formatted only if a deadlock is reported — so hot
// message-passing paths pay no formatting cost.
func (p *Process) SetBlockDetailf(format string, args ...any) {
	p.detailFormat, p.detailArgs = format, args
}

// blockDetail renders the current block detail ("" when none).
func (p *Process) blockDetail() string {
	if p.detailArgs == nil {
		return p.detailFormat
	}
	return fmt.Sprintf(p.detailFormat, p.detailArgs...)
}

// dead reports that a process should no longer be matched by
// synchronization primitives (it finished or a kill is in flight).
func (p *Process) dead() bool { return p.done || p.killed }

// Spawn creates a process that starts executing body at the current
// simulated time (once Run is in control).
func (e *Engine) Spawn(name string, body func(p *Process)) *Process {
	p := &Process{e: e, name: name, resume: make(chan struct{})}
	e.live[p] = true
	go func() {
		<-p.resume
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(killSentinel); !ok {
						panic(r)
					}
				}
			}()
			body(p)
		}()
		p.done = true
		delete(e.live, p)
		e.runner = nil
		e.park <- struct{}{}
	}()
	e.scheduleProc(e.now, p)
	e.mSpawns.Inc()
	return p
}

// Kill fail-stops p: its next wake-up unwinds the process instead of
// resuming it, and it leaves the live set (so it cannot deadlock the
// run). Call from a scheduled callback or another process; killing an
// already-finished process is a no-op. The dead process's entries in
// channels, latches and resources are skipped lazily.
func (e *Engine) Kill(p *Process) {
	if p == nil || p.done || p.killed {
		return
	}
	p.killed = true
	e.mKills.Inc()
	// Wake it (possibly redundantly) so the goroutine unwinds promptly.
	e.scheduleProc(e.now, p)
}

// StallUntil freezes p's wake-ups until absolute time t: any resume that
// would fire earlier is deferred to t (a transient core stall). Extends,
// never shortens, an existing stall.
func (e *Engine) StallUntil(p *Process, t float64) {
	if p == nil || p.dead() {
		return
	}
	if t > p.stallUntil {
		p.stallUntil = t
	}
}

// yield transfers control back to the engine and parks until resumed.
// Wake-ups inside a stall window are re-deferred to the stall end; a
// pending kill unwinds the goroutine via the sentinel panic.
func (p *Process) yield() {
	p.e.runner = nil
	p.e.park <- struct{}{}
	<-p.resume
	for !p.killed && p.stallUntil > p.e.now {
		p.e.scheduleProc(p.stallUntil, p)
		p.e.runner = nil
		p.e.park <- struct{}{}
		<-p.resume
	}
	if p.killed {
		panic(killSentinel{})
	}
	p.e.runner = p
}

// Wait advances the process's local time by d seconds of simulated time.
// Negative d is treated as zero.
func (p *Process) Wait(d float64) {
	if d < 0 || math.IsNaN(d) {
		d = 0
	}
	p.e.scheduleProc(p.e.now+d, p)
	p.yield()
}

// block parks the process with no scheduled wake-up; some other process
// or event must call unblock. The primitive kind op and its name are
// recorded for deadlock reports ("recv" on "rcce.req.0->3" reads
// "recv:rcce.req.0->3"). (A killed process unwinds out of yield, so the
// histogram only sees blocks that actually resumed.)
func (p *Process) block(op, name string) {
	p.blockedOp, p.blockedOn = op, name
	p.e.mBlocks.Inc()
	start := p.e.now
	p.yield()
	p.e.hBlock.Observe(p.e.now - start)
	p.blockedOp, p.blockedOn = "", ""
}

// blockReason renders the primitive p is parked on ("" when runnable).
func (p *Process) blockReason() string {
	if p.blockedOp == "" {
		return ""
	}
	return p.blockedOp + ":" + p.blockedOn
}

// unblock schedules p to resume at the current time.
func (p *Process) unblock() {
	p.e.scheduleProc(p.e.now, p)
}

// BlockedProcess describes one process stuck at deadlock detection time.
type BlockedProcess struct {
	// Name is the process name (e.g. "rck03").
	Name string
	// Reason is the primitive it is parked on (e.g. "recv:rcce.req.0->3").
	Reason string
	// Detail is optional operation context supplied via SetBlockDetail
	// (e.g. "rcce send 0->3 (1234 bytes)").
	Detail string
}

func (b BlockedProcess) String() string {
	if b.Detail != "" {
		return fmt.Sprintf("%s blocked on %s [%s]", b.Name, b.Reason, b.Detail)
	}
	return fmt.Sprintf("%s blocked on %s", b.Name, b.Reason)
}

// DeadlockError reports processes still blocked when the event queue
// drained, with each process's block reason and any operation detail.
type DeadlockError struct {
	Time    float64
	Blocked []BlockedProcess
}

func (e *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at t=%.6f: %d process(es) blocked:", e.Time, len(e.Blocked))
	for _, bp := range e.Blocked {
		b.WriteString("\n  ")
		b.WriteString(bp.String())
	}
	return b.String()
}

// Run executes events until the queue drains. It returns a DeadlockError
// if live processes remain blocked with no pending events, else nil.
func (e *Engine) Run() error {
	for e.events.Len() > 0 {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.t
		if ev.p != nil {
			if ev.p.done {
				continue
			}
			e.mWakes.Inc()
			e.runner = ev.p
			ev.p.resume <- struct{}{}
			<-e.park
		} else if ev.fn != nil {
			e.mCallbacks.Inc()
			ev.fn()
		}
	}
	if len(e.live) > 0 {
		var blocked []BlockedProcess
		for p := range e.live {
			blocked = append(blocked, BlockedProcess{Name: p.name, Reason: p.blockReason(), Detail: p.blockDetail()})
		}
		sort.Slice(blocked, func(i, j int) bool {
			if blocked[i].Name != blocked[j].Name {
				return blocked[i].Name < blocked[j].Name
			}
			return blocked[i].Reason < blocked[j].Reason
		})
		return &DeadlockError{Time: e.now, Blocked: blocked}
	}
	return nil
}

// RunUntil executes events with timestamps <= t, then stops (remaining
// events stay queued). It does not report deadlock.
func (e *Engine) RunUntil(t float64) {
	for e.events.Len() > 0 && e.events[0].t <= t {
		ev := heap.Pop(&e.events).(event)
		e.now = ev.t
		if ev.p != nil {
			if ev.p.done {
				continue
			}
			e.mWakes.Inc()
			e.runner = ev.p
			ev.p.resume <- struct{}{}
			<-e.park
		} else if ev.fn != nil {
			e.mCallbacks.Inc()
			ev.fn()
		}
	}
	if t > e.now {
		e.now = t
	}
}
