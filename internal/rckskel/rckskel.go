// Package rckskel reproduces the paper's algorithmic skeleton library of
// the same name: SEQ, PAR, COLLECT and FARM constructs that orchestrate
// jobs across SCC cores over the RCCE message-passing layer. The master
// process distributes application-defined jobs and gathers results by
// round-robin polling of the slaves, exactly as described in Section IV.
//
// FARM is one pull-based loop, Team.Farm (farm.go), over a Source of job
// queues and a slave-to-queue mapping: one shared queue is the paper's
// FARM, one queue per worker is cache-affinity farming, one queue per
// method is MC-PSC. A team with FT set runs the same loop with per-job
// deadlines on (fault tolerance, single queue only). Every construct
// shares one slave loop (StartSlaves) and one shutdown (Terminate).
//
// A "job" is one application work unit (here: a pairwise protein
// structure comparison); a "task" is a collection of jobs plus the cores
// allowed to execute them.
//
// Polling model: the real library busy-loops over the slaves' MPB flags.
// Simulating every individual probe is infeasible (a multi-second job
// would need ~10^8 probe events), so the simulation is event-driven — a
// slave "rings" the master when its result flag goes up — and the master
// is charged the equivalent round-robin discovery cost per collection:
// on average half a sweep of remote flag reads before it reaches the
// ready slave. The master remains a serial resource: while it transfers
// one result, other ready slaves wait, exactly as with real polling.
package rckskel

import (
	"errors"
	"fmt"
	"math"

	"rckalign/internal/costmodel"
	"rckalign/internal/metrics"
	"rckalign/internal/rcce"
	"rckalign/internal/sim"
	"rckalign/internal/trace"
)

// ErrJobBytes reports a job whose modelled request wire size is not
// positive. A zero or negative size would silently corrupt the NoC
// transfer model (rcce clamps instead of diagnosing), so job builders
// and dispatch validate it up front.
var ErrJobBytes = errors.New("rckskel: job request bytes must be positive")

// Job is one unit of work dispatched to a slave core.
type Job struct {
	// ID identifies the job in results.
	ID int
	// Payload is the application request (structure pair, etc.).
	Payload any
	// Bytes is the modelled wire size of the request message.
	Bytes int
	// SizeFor, when non-nil, supplies the request's wire size for a
	// specific slave at dispatch time, overriding Bytes. The cached
	// farm uses it to ship only the structures a slave's modelled cache
	// is missing. Dispatch calls it exactly once per send, in
	// deterministic event order, so stateful size models (LRU caches)
	// stay reproducible.
	SizeFor func(slave int) int
}

// ValidateJobs rejects jobs whose static wire size is not positive
// with ErrJobBytes. Jobs carrying a SizeFor hook are resolved per
// slave at dispatch time and checked there instead.
func ValidateJobs(jobs []Job) error {
	for _, j := range jobs {
		if j.SizeFor == nil && j.Bytes < 1 {
			return fmt.Errorf("%w: job %d has %d bytes", ErrJobBytes, j.ID, j.Bytes)
		}
	}
	return nil
}

// Result is a slave's answer to one job.
type Result struct {
	JobID int
	Slave int
	// Payload is the application result.
	Payload any
	// Bytes is the modelled wire size of the result message.
	Bytes int
}

// Handler executes a job's application work on a slave. It returns the
// result payload, the operation counts to charge as compute time on the
// slave's core, and the result's wire size.
type Handler func(job Job) (payload any, ops costmodel.Counter, resultBytes int)

// terminate is the shutdown sentinel the master sends to each slave.
type terminate struct{}

// slaveMetrics are one slave's per-core aggregates (nil counters, and so
// no-ops, unless SetMetrics installed a registry).
type slaveMetrics struct {
	jobs, compute, wait *metrics.Counter
}

// Team manages a master core and a set of slave cores on one chip.
// Per-slave state lives in slices indexed by the slave's position in
// Slaves.
type Team struct {
	Comm   *rcce.Comm
	Master int
	Slaves []int

	// DiscoveryCostScale scales the master's round-robin polling cost
	// charged per collected result. 1 models the paper's busy polling;
	// 0 models an ideal event-driven notification (the polling
	// ablation).
	DiscoveryCostScale float64

	// Trace, when non-nil, records per-core activity intervals
	// ("compute" on slaves, "collect" on the master) for utilization
	// and Gantt reports.
	Trace *trace.Recorder

	// FT, when non-nil, makes every farm of the team fault-tolerant:
	// per-job deadlines, retry, blacklisting and a stop broadcast that
	// Terminate uses to reach slaves cut off by a faulty wire. nil is the
	// paper's FARM. Set it before StartSlaves — a slave decides when it
	// spawns whether to listen for the stop broadcast; the deadline
	// values are read when each farm starts.
	FT *FTConfig

	// pollSweep is the summed flag-poll cost over the slave ring and
	// poll[i] the cost of polling slave i (see discoveryCost).
	pollSweep float64
	poll      []float64

	// ring carries "result ready" flags (slave positions) from slaves to
	// the master: an async queue, so a slave's flag survives even when
	// the master is busy or the slave dies right after raising it.
	ring *sim.Queue
	// stop broadcasts shutdown to fault-tolerant slave loops.
	stop *sim.Latch

	// ringAt[i] is the simulated time slave i last raised its ready
	// flag; the master reads it when collecting to attribute how long
	// the result sat in the "mailbox" (at most one outstanding ring per
	// slave, by construction of the slave loop).
	ringAt []float64

	// Observability handles, nil unless SetMetrics installed a registry.
	reg            *metrics.Registry
	hDispatchWait  *metrics.Histogram
	hInputXfer     *metrics.Histogram
	hCompute       *metrics.Histogram
	hResultXfer    *metrics.Histogram
	hCollectWait   *metrics.Histogram
	cJobsDone      *metrics.Counter
	cMasterCollect *metrics.Counter
	sMailbox       *metrics.Series
	gMailboxPeak   *metrics.Gauge
	slaveStats     []slaveMetrics
	mailboxDepth   int
}

// SetMetrics installs a metrics registry: the team then decomposes every
// job's latency into dispatch-wait, input-transfer, compute,
// result-transfer and collect-wait histograms ("farm.job.*_seconds"),
// keeps per-slave aggregates ("farm.slave.*{slave=rckNN}"), and samples
// the master's mailbox depth — the number of slaves with a result ready
// that the master has not yet started collecting — as a time series
// ("farm.master.mailbox_depth") with its peak as a gauge. Recording is
// passive: no simulated time, no extra events. Passing nil disables it.
//
// labels are optional extra key/value label pairs appended to every
// fixed metric key (a multi-chip system scopes each chip's team with
// "chip", "cN", so sub-master mailboxes stay distinguishable); the
// per-slave keys are already distinct through the chip's core name
// prefix. No labels keeps the classic keys bit-identical.
func (t *Team) SetMetrics(reg *metrics.Registry, labels ...string) {
	t.reg = reg
	t.hDispatchWait = reg.Histogram("farm.job.dispatch_wait_seconds", metrics.TimeBuckets, labels...)
	t.hInputXfer = reg.Histogram("farm.job.input_xfer_seconds", metrics.TimeBuckets, labels...)
	t.hCompute = reg.Histogram("farm.job.compute_seconds", metrics.TimeBuckets, labels...)
	t.hResultXfer = reg.Histogram("farm.job.result_xfer_seconds", metrics.TimeBuckets, labels...)
	t.hCollectWait = reg.Histogram("farm.job.collect_wait_seconds", metrics.TimeBuckets, labels...)
	t.cJobsDone = reg.Counter("farm.jobs.completed", labels...)
	t.cMasterCollect = reg.Counter("farm.master.collect_seconds", labels...)
	t.sMailbox = reg.Series("farm.master.mailbox_depth", labels...)
	t.gMailboxPeak = reg.Gauge("farm.master.mailbox_peak", labels...)
	for i, s := range t.Slaves {
		if reg == nil {
			t.slaveStats[i] = slaveMetrics{}
			continue
		}
		name := t.Comm.Chip().CoreName(s)
		t.slaveStats[i] = slaveMetrics{
			jobs:    reg.Counter("farm.slave.jobs", "slave", name),
			compute: reg.Counter("farm.slave.compute_seconds", "slave", name),
			wait:    reg.Counter("farm.slave.dispatch_wait_seconds", "slave", name),
		}
	}
}

// PeakMailboxDepth returns the deepest the master's mailbox got (0 when
// metrics are disabled).
func (t *Team) PeakMailboxDepth() float64 { return t.gMailboxPeak.Value() }

// MailboxSeries returns the mailbox-depth time series handle (nil when
// metrics are disabled).
func (t *Team) MailboxSeries() *metrics.Series { return t.sMailbox }

// ringUp records that slave i's result went ready at time now.
func (t *Team) ringUp(i int, now float64) {
	t.ringAt[i] = now
	if t.reg == nil {
		return
	}
	t.mailboxDepth++
	t.sMailbox.Append(now, float64(t.mailboxDepth))
	t.gMailboxPeak.Max(float64(t.mailboxDepth))
}

// ringDown records that the master noticed slave i's flag at time now
// and returns how long the result sat waiting.
func (t *Team) ringDown(i int, now float64) float64 {
	wait := now - t.ringAt[i]
	if t.reg != nil {
		t.mailboxDepth--
		t.sMailbox.Append(now, float64(t.mailboxDepth))
	}
	return wait
}

// NewTeam builds a team with the master on masterCore and the given
// slaves. Slave cores must be distinct from the master.
func NewTeam(comm *rcce.Comm, masterCore int, slaves []int) *Team {
	t := &Team{
		Comm:               comm,
		Master:             masterCore,
		Slaves:             append([]int(nil), slaves...),
		DiscoveryCostScale: 1,
		poll:               make([]float64, len(slaves)),
		ring:               sim.NewQueue("rckskel.ring"),
		stop:               sim.NewLatch("rckskel.stop"),
		ringAt:             make([]float64, len(slaves)),
		slaveStats:         make([]slaveMetrics, len(slaves)),
	}
	for i, s := range slaves {
		if s == masterCore {
			panic(fmt.Sprintf("rckskel: core %d cannot be both master and slave", s))
		}
		t.poll[i] = comm.PollCost(masterCore, s)
		t.pollSweep += t.poll[i]
	}
	return t
}

// StartSlaves spawns the slave loop on every slave core: block for a job
// from the master, execute it (charging its compute time to the core),
// flag and return the result, repeat until terminated.
func (t *Team) StartSlaves(h Handler) {
	t.StartSlavesWith(func(int) Handler { return h })
}

// StartSlavesWith spawns the slave loops with a per-core handler,
// supporting the paper's MC-PSC extension where different slaves run
// different comparison algorithms on the same data.
func (t *Team) StartSlavesWith(h func(core int) Handler) {
	for i, core := range t.Slaves {
		i, core := i, core
		t.Comm.Chip().SpawnCore(core, func(p *sim.Process) {
			t.slaveLoop(p, i, h(core))
		})
	}
}

// slaveLoop is the one slave loop behind every construct. On a
// fault-tolerant team its job receive also aborts on the stop latch,
// corrupted job requests are discarded (the master's deadline re-sends
// them), and results are not sent once the stop latch is up (the master
// no longer collects). Shutdown always ends with the terminate
// sentinel.
func (t *Team) slaveLoop(p *sim.Process, i int, h Handler) {
	core := t.Slaves[i]
	var stop *sim.Latch
	if t.FT != nil {
		stop = t.stop
	}
	for {
		m, tm, ok := t.Comm.RecvWithin(p, t.Master, core, math.Inf(1), stop)
		if !ok {
			// Stop raised while idle: the terminating master sends the
			// shutdown sentinel next. Bound the wait — a faulty link may
			// drop the sentinel, and that must not park this core forever.
			if m, tm, ok = t.Comm.RecvWithin(p, t.Master, core, t.FT.resultTimeout(), nil); !ok {
				return
			}
		}
		if _, done := m.Payload.(terminate); done {
			return
		}
		if m.Corrupt {
			// Checksum mismatch on the job request: discard it. The
			// master's deadline machinery will re-send.
			continue
		}
		sm := &t.slaveStats[i]
		t.hDispatchWait.Observe(tm.WaitSeconds)
		t.hInputXfer.Observe(tm.XferSeconds)
		sm.wait.Add(tm.WaitSeconds)
		job := m.Payload.(Job)
		payload, ops, resultBytes := h(job)
		computeStart := p.Now()
		t.Comm.Chip().Compute(p, ops)
		computeEnd := p.Now()
		if t.Trace != nil {
			t.Trace.Add(t.Comm.Chip().CoreName(core), computeStart, computeEnd, "compute")
		}
		t.hCompute.Observe(computeEnd - computeStart)
		sm.jobs.Inc()
		sm.compute.Add(computeEnd - computeStart)
		if resultBytes < 1 {
			resultBytes = 1
		}
		if t.stop.IsSet() {
			// The master stopped collecting while this job computed:
			// discard the result and loop around for the sentinel.
			continue
		}
		// Raise the ready flag (the master's poll will find it) and then
		// post the result.
		t.ringUp(i, p.Now())
		t.ring.Put(i)
		t.Comm.Send(p, core, t.Master, resultBytes, Result{
			JobID: job.ID, Slave: core, Payload: payload, Bytes: resultBytes,
		})
	}
}

// Terminate shuts down the slave loops: raise the stop latch, then per
// slave drain any result send already in flight (so no straggler is
// left blocked mid-handshake) and deliver the shutdown sentinel. Slaves
// whose process has already finished — fail-stopped cores, or loops
// that gave up waiting for a sentinel while the master was stuck
// handshaking a straggler — get no sentinel: there is nobody left to
// receive it, and without an interposer to drop it the send would block
// the master forever. Only fault-tolerant slaves listen to the latch,
// and on a fault-free run no slave ever exits early or is left sending,
// so the handshake is one sentinel send per slave. Call from the master
// after all farms complete.
func (t *Team) Terminate(p *sim.Process) {
	t.stop.Set()
	timeout := t.FT.resultTimeout()
	for _, core := range t.Slaves {
		for t.Comm.Probe(core, t.Master) {
			if _, _, ok := t.Comm.RecvWithin(p, core, t.Master, timeout, nil); !ok {
				break
			}
		}
		if sp := t.Comm.Chip().Proc(core); sp == nil || sp.Done() {
			continue
		}
		t.Comm.Send(p, t.Master, core, 1, terminate{})
	}
	t.ring.Drain()
}

// sendJob dispatches one job request from the master to a slave,
// resolving the wire size per slave when the job carries a SizeFor
// hook. Every dispatch path (SEQ, PAR, Farm) funnels through here so
// the size model and its validation are applied uniformly. A
// non-positive resolved size is a modelling bug that would corrupt the
// NoC transfer model; it fails loudly instead of being clamped.
func (t *Team) sendJob(p *sim.Process, slave int, job Job) {
	bytes := job.Bytes
	if job.SizeFor != nil {
		bytes = job.SizeFor(slave)
	}
	if bytes < 1 {
		panic(fmt.Errorf("%w: job %d resolved to %d bytes for slave %d", ErrJobBytes, job.ID, bytes, slave))
	}
	t.Comm.Send(p, t.Master, slave, bytes, job)
}

// discoveryCost is the simulated time the master spends finding ready
// slave i by round-robin flag polling: on average half a sweep over the
// slave ring, ending at the ready slave.
func (t *Team) discoveryCost(i int) float64 {
	return t.pollSweep/2 + t.poll[i]
}

// Stats reports what a Farm or COLLECT execution did.
type Stats struct {
	// JobsPerSlave[core] counts jobs executed by that core.
	JobsPerSlave map[int]int
	// PollProbes estimates individual slave-flag probes by the master
	// (half a sweep per collection, as charged in simulated time).
	PollProbes int
	// MakespanSeconds is the simulated duration (first send to last
	// collect).
	MakespanSeconds float64
}

// collectFrom charges the polling discovery cost of ready slave i and
// receives its result within timeout, recording the collect-side
// latency stages. ok=false means the transfer never completed.
func (t *Team) collectFrom(p *sim.Process, i int, timeout float64, st *Stats) (rcce.Message, bool) {
	collectStart := p.Now()
	t.hCollectWait.Observe(t.ringDown(i, collectStart))
	p.Wait(t.DiscoveryCostScale * t.discoveryCost(i))
	st.PollProbes += len(t.Slaves)/2 + 1
	m, tm, ok := t.Comm.RecvWithin(p, t.Slaves[i], t.Master, timeout, nil)
	if t.Trace != nil {
		t.Trace.Add(t.Comm.Chip().CoreName(t.Master), collectStart, p.Now(), "collect")
	}
	t.cMasterCollect.Add(p.Now() - collectStart)
	if ok {
		t.hResultXfer.Observe(tm.XferSeconds)
	}
	return m, ok
}

// collectOne blocks until some slave rings and collects its result.
func (t *Team) collectOne(p *sim.Process, st *Stats) Result {
	i := t.ring.Get(p).(int)
	m, _ := t.collectFrom(p, i, math.Inf(1), st)
	t.cJobsDone.Inc()
	res := m.Payload.(Result)
	st.JobsPerSlave[res.Slave]++
	return res
}

// SEQ runs jobs one at a time on the cycle of the team's slaves: job k
// goes to slave k mod len(Slaves), and the master waits for each result
// before issuing the next (the paper's task sequencing construct).
func (t *Team) SEQ(p *sim.Process, jobs []Job, collect func(Result)) Stats {
	st := Stats{JobsPerSlave: map[int]int{}}
	start := p.Now()
	for k, job := range jobs {
		slave := t.Slaves[k%len(t.Slaves)]
		t.sendJob(p, slave, job)
		res := t.collectOne(p, &st)
		if collect != nil {
			collect(res)
		}
	}
	st.MakespanSeconds = p.Now() - start
	return st
}

// PAR assigns jobs[k] to slave k (len(jobs) must not exceed the slave
// count) and returns as soon as all jobs have been handed over, without
// waiting for completion (the paper's task mapping construct). Use
// COLLECT to gather the results.
func (t *Team) PAR(p *sim.Process, jobs []Job) {
	if len(jobs) > len(t.Slaves) {
		panic(fmt.Sprintf("rckskel: PAR got %d jobs for %d slaves", len(jobs), len(t.Slaves)))
	}
	for k, job := range jobs {
		t.sendJob(p, t.Slaves[k], job)
	}
}

// COLLECT polls the team's slaves until `expect` results have been
// gathered (the paper's task collection construct).
func (t *Team) COLLECT(p *sim.Process, expect int, collect func(Result)) Stats {
	st := Stats{JobsPerSlave: map[int]int{}}
	start := p.Now()
	for outstanding := expect; outstanding > 0; outstanding-- {
		res := t.collectOne(p, &st)
		if collect != nil {
			collect(res)
		}
	}
	st.MakespanSeconds = p.Now() - start
	return st
}
