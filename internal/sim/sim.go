//go:build go1.23

// Package sim is a deterministic discrete-event simulation engine with
// SimPy-style coroutine processes. It provides the virtual clock under
// the SCC chip model: simulated cores are processes that Wait() for the
// durations charged by the cost model and exchange messages through
// rendezvous channels whose transfer latencies model the on-chip mesh.
//
// Each process body runs as an iter.Pull coroutine: the engine resumes
// it with next and it hands control back by yielding, a direct switch
// with no channel handoff or scheduler round trip. Exactly one of the
// engine and its processes runs at any moment, and pending events sit
// in a binary heap ordered by (time, schedule sequence), so events at
// equal times fire in schedule order and runs are fully deterministic.
//
// The file needs go1.23 for the iter package; go.mod's go line stays at
// 1.22 so modules that require this one keep building unchanged.
//
// Fault-injection support: a process can be fail-stopped (Engine.Kill)
// or transiently stalled (Engine.StallUntil) from a scheduled callback.
// A killed process unwinds out of whatever it is blocked on and leaves
// the live set, so it neither resumes nor counts as deadlocked; the
// synchronization primitives in sync.go lazily skip dead waiters.
package sim

import (
	"fmt"
	"iter"
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

// before reports whether a fires before b. (t, seq) is a total order:
// seq is unique per event, so equal-time events fire in schedule order.
func (a *event) before(b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// eventHeap is a binary min-heap of events on (t, seq), typed so that
// push and pop move events by value with no interface boxing.
type eventHeap []event

// push adds ev, sifting it up from the new last slot.
func (h *eventHeap) push(ev event) {
	s := append(*h, ev)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
	*h = s
}

// pop removes and returns the earliest event; the heap must be
// non-empty. The last event is sifted down from the root, and the
// vacated slot is cleared so the heap holds no stale references.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = event{}
	s = s[:n]
	if n > 0 {
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if r := c + 1; r < n && s[r].before(&s[c]) {
				c = r
			}
			if !s[c].before(&last) {
				break
			}
			s[i] = s[c]
			i = c
		}
		s[i] = last
	}
	*h = s
	return top
}

// Engine owns the virtual clock and the event queue.
type Engine struct {
	now    float64
	events eventHeap
	seq    int64
	live   map[*Process]bool

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
	return &Engine{live: map[*Process]bool{}}
}

// Now returns the current simulated time in seconds.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn at absolute time t (>= Now).
func (e *Engine) Schedule(t float64, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{t: t, seq: e.seq, fn: fn})
}

// After runs fn after delay d.
func (e *Engine) After(d float64, fn func()) { e.Schedule(e.now+d, fn) }

func (e *Engine) scheduleProc(t float64, p *Process) {
	e.seq++
	e.events.push(event{t: t, seq: e.seq, p: p})
}

// killSentinel is the panic value that unwinds a killed process's
// coroutine; the Spawn wrapper recovers it.
type killSentinel struct{}

// Process is a simulated thread of control. Its methods must only be
// called from within its own body function.
type Process struct {
	e    *Engine
	name string
	// next resumes the body's coroutine until it yields (true) or
	// finishes (false); stop unwinds a suspended body. yieldFn is the
	// coroutine's yield, through which the body hands control back.
	next    func() (struct{}, bool)
	stop    func()
	yieldFn func(struct{}) bool
	done    bool
	// killed marks a fail-stopped process; its next wake-up unwinds the
	// coroutine instead of resuming the body.
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
	p := &Process{e: e, name: name}
	e.live[p] = true
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(killSentinel); !ok {
					panic(r)
				}
			}
		}()
		body(p)
	})
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
	// Wake it (possibly redundantly) so the coroutine unwinds promptly.
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
// pending kill unwinds the coroutine via the sentinel panic.
func (p *Process) yield() {
	p.park()
	for !p.killed && p.stallUntil > p.e.now {
		p.e.scheduleProc(p.stallUntil, p)
		p.park()
	}
	if p.killed {
		panic(killSentinel{})
	}
}

// park suspends the coroutine until the engine resumes it. A false
// yield means the engine stopped the coroutine (a deadlocked process
// being released), which unwinds like a kill.
func (p *Process) park() {
	if !p.yieldFn(struct{}{}) {
		p.killed = true
	}
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
// if live processes remain blocked with no pending events, else nil; the
// blocked processes are then unwound (marked killed and done), so a
// deadlocked run leaves nothing suspended behind it.
//
// A panic in a process body (other than the internal kill unwind)
// propagates out of Run on the caller's goroutine, where it can be
// recovered; the engine must not be used after that.
func (e *Engine) Run() error {
	for len(e.events) > 0 {
		e.step()
	}
	if len(e.live) == 0 {
		return nil
	}
	stuck := make([]*Process, 0, len(e.live))
	for p := range e.live {
		stuck = append(stuck, p)
	}
	sort.Slice(stuck, func(i, j int) bool {
		if stuck[i].name != stuck[j].name {
			return stuck[i].name < stuck[j].name
		}
		return stuck[i].blockReason() < stuck[j].blockReason()
	})
	blocked := make([]BlockedProcess, len(stuck))
	for i, p := range stuck {
		blocked[i] = BlockedProcess{Name: p.name, Reason: p.blockReason(), Detail: p.blockDetail()}
		p.killed = true
		p.stop()
		p.done = true
		delete(e.live, p)
	}
	return &DeadlockError{Time: e.now, Blocked: blocked}
}

// RunUntil executes events with timestamps <= t, then stops (remaining
// events stay queued). It does not report deadlock.
func (e *Engine) RunUntil(t float64) {
	for len(e.events) > 0 && e.events[0].t <= t {
		e.step()
	}
	if t > e.now {
		e.now = t
	}
}

// step pops the earliest event, advances the clock to it and fires it:
// a callback runs inline, a process wake-up resumes the process.
func (e *Engine) step() {
	ev := e.events.pop()
	e.now = ev.t
	if ev.p != nil {
		if !ev.p.done {
			e.resume(ev.p)
		}
	} else if ev.fn != nil {
		e.mCallbacks.Inc()
		ev.fn()
	}
}

// resume runs p until it next yields; when its body has returned (or
// unwound from a kill), p is done and leaves the live set.
func (e *Engine) resume(p *Process) {
	e.mWakes.Inc()
	if _, ok := p.next(); !ok {
		p.done = true
		delete(e.live, p)
	}
}
