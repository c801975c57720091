// The farm: the paper's master-slaves construct as one pull-based loop.
// The master primes every slave with a job, then polls; whenever a
// slave returns a result, the freed slave pulls the next job from its
// queue, until every job is done. The same loop serves a single shared
// queue (the paper's FARM), one queue per worker (cache-affinity
// farming) and one queue per method (MC-PSC).
//
// On a fault-tolerant team (Team.FT set) the loop also carries per-job
// deadlines, retry with reassignment, blacklisting of repeatedly
// failing slaves, and duplicate-result discard, so an all-vs-all
// comparison completes (possibly degraded) even when cores fail-stop,
// stall, or links misbehave mid-run.
//
// Detection model: the master is assumed reliable (as in the paper's
// farm) and observes failures only through time — a dispatched job
// whose result has not been collected by its deadline is presumed
// lost, whatever the cause (dead core, stalled core, dropped job or
// result message). Corrupted messages are detected by the wire
// checksums (rcce.Message.Corrupt) and treated as losses that cost
// only a retry, not the slave's reputation. Sends to fail-stopped
// cores rely on the fault injector's wire model (the dead core's MPB
// never acknowledges, the message vanishes, the sender moves on);
// without an interposer a send to a dead core would hang, exactly as
// busy-waiting on a dead core's flags would on hardware.
package rckskel

import (
	"errors"
	"math"

	"rckalign/internal/sim"
)

// ErrFaultsMultiQueue reports a farm with more than one job queue on a
// fault-tolerant team. Retries would go back on the failed job's own
// queue, which only the slaves bound to it drain; the supported
// fault-tolerant farm is the single shared queue.
var ErrFaultsMultiQueue = errors.New("rckskel: fault-tolerant farms take a single job queue")

// FTConfig tunes a fault-tolerant team's farms. The zero value disables
// detection (no deadlines): jobs are never presumed lost.
type FTConfig struct {
	// JobDeadlineSeconds is how long the master waits after handing a
	// job to a slave before presuming it lost and re-dispatching.
	// 0 = no deadline (no fail-stop recovery).
	JobDeadlineSeconds float64
	// ResultTimeoutSeconds bounds the result transfer after a slave
	// rings (covers cores dying mid-transfer). 0 = JobDeadlineSeconds.
	ResultTimeoutSeconds float64
	// MaxFailures blacklists a slave after this many consecutive
	// failures (default 3). Blacklisted slaves get no further jobs, but
	// a late result from one is still accepted.
	MaxFailures int
	// MaxAttempts gives up on a job after this many dispatches
	// (counted as lost). 0 = retry for as long as healthy slaves remain.
	MaxAttempts int
}

// resultTimeout resolves the result-transfer timeout (+Inf on a team
// without fault tolerance, or when no deadline is configured).
func (c *FTConfig) resultTimeout() float64 {
	switch {
	case c == nil:
		return math.Inf(1)
	case c.ResultTimeoutSeconds > 0:
		return c.ResultTimeoutSeconds
	case c.JobDeadlineSeconds > 0:
		return c.JobDeadlineSeconds
	}
	return math.Inf(1)
}

// FTStats reports what the fault-tolerance machinery did during one
// farm execution (all zero on a team without fault tolerance).
type FTStats struct {
	// Timeouts counts deadline expiries and result-transfer timeouts.
	Timeouts int
	// CorruptDetected counts results discarded for checksum mismatch.
	CorruptDetected int
	// Retries counts re-dispatches of jobs that had already been handed
	// to some slave once.
	Retries int
	// Reassigned counts retries that moved the job to a different slave.
	Reassigned int
	// DuplicatesDropped counts late results for jobs a retry had
	// already completed.
	DuplicatesDropped int
	// LostJobs counts jobs never completed (degraded termination or
	// MaxAttempts exhausted, minus late redemptions).
	LostJobs int
	// Blacklisted lists slaves taken out of rotation, in order.
	Blacklisted []int
}

// Source is a farm's job supply: Queues[q] is a FIFO of jobs, and
// QueueOf(slave) names the queue a slave core pulls from (nil = every
// slave pulls from queue 0). A retried job goes back on its own queue.
type Source struct {
	Queues  [][]Job
	QueueOf func(slave int) int
}

// Shared is the paper's FARM source: one queue every slave pulls from.
func Shared(jobs []Job) Source { return Source{Queues: [][]Job{jobs}} }

// none marks an empty job slot (no job in flight, nothing dispatched).
const none = -1

// farmRun is the state of one Farm execution. Jobs are numbered
// globally (queue q's job k is base[q]+k); per-slave state is indexed by
// the slave's position in Team.Slaves.
type farmRun struct {
	t       *Team
	p       *sim.Process
	src     Source
	collect func(Result)
	st      Stats
	ft      FTStats

	deadline, resultTimeout  float64 // job deadline, result transfer bound (+Inf = none)
	maxFailures, maxAttempts int

	// Per queue: the next original job, then retried jobs in FIFO order.
	base, head []int
	retry      [][]int

	// Per job.
	done, lost          []bool
	attempts, lastSlave []int
	completed, nLost    int

	// Per slave position.
	queueOf              []int
	idle, suspect, black []bool
	fails                []int
	inflight             []int     // job awaiting collection, or none
	due                  []float64 // inflight job's deadline
	cur                  []int     // job the slave last received
	nInflight            int
}

// Farm executes every job of src on the team's slaves and hands each
// result to collect (may be nil). Dispatch follows the slave ring: with
// every slave idle it primes them in order, and a freed slave pulls the
// next job of its own queue; a slave whose queue is empty stays idle.
// On a fault-tolerant team, presumed-lost jobs are re-dispatched (to
// another slave when one is free), slaves that keep failing are
// blacklisted, duplicate and corrupt results are discarded, and the
// farm terminates — degraded, with jobs marked lost — even when every
// slave has died; such a team takes one queue only (ErrFaultsMultiQueue,
// returned before anything is dispatched). Call from the master
// process; slaves must already be running.
func (t *Team) Farm(p *sim.Process, src Source, collect func(Result)) (Stats, FTStats, error) {
	if t.FT != nil && len(src.Queues) > 1 {
		return Stats{}, FTStats{}, ErrFaultsMultiQueue
	}
	f := newFarmRun(t, p, src, collect)
	start := p.Now()
	f.run()
	f.st.MakespanSeconds = p.Now() - start
	return f.st, f.ft, nil
}

func newFarmRun(t *Team, p *sim.Process, src Source, collect func(Result)) *farmRun {
	n := len(t.Slaves)
	f := &farmRun{
		t: t, p: p, src: src, collect: collect,
		st:            Stats{JobsPerSlave: map[int]int{}},
		deadline:      math.Inf(1),
		resultTimeout: t.FT.resultTimeout(),
		maxFailures:   3,
		base:          make([]int, len(src.Queues)),
		head:          make([]int, len(src.Queues)),
		retry:         make([][]int, len(src.Queues)),
		queueOf:       make([]int, n),
		idle:          make([]bool, n),
		suspect:       make([]bool, n),
		black:         make([]bool, n),
		fails:         make([]int, n),
		inflight:      make([]int, n),
		due:           make([]float64, n),
		cur:           make([]int, n),
	}
	if ft := t.FT; ft != nil {
		if ft.JobDeadlineSeconds > 0 {
			f.deadline = ft.JobDeadlineSeconds
		}
		if ft.MaxFailures > 0 {
			f.maxFailures = ft.MaxFailures
		}
		f.maxAttempts = ft.MaxAttempts
	}
	total := 0
	for q, jobs := range src.Queues {
		f.base[q] = total
		total += len(jobs)
	}
	f.done = make([]bool, total)
	f.lost = make([]bool, total)
	f.attempts = make([]int, total)
	f.lastSlave = make([]int, total)
	for g := range f.lastSlave {
		f.lastSlave[g] = none
	}
	for i, s := range t.Slaves {
		if src.QueueOf != nil {
			f.queueOf[i] = src.QueueOf(s)
		}
		f.idle[i] = true
		f.inflight[i] = none
		f.cur[i] = none
	}
	return f
}

func (f *farmRun) run() {
	total := len(f.done)
	for f.completed+f.nLost < total {
		f.dispatch()
		if f.completed+f.nLost >= total {
			break
		}
		if f.nInflight == 0 {
			if !f.anySuspect() {
				// Nothing running and nobody left who could ring: give up
				// on what remains.
				f.giveUp()
				continue
			}
			// Grace period: a suspect slave may still ring and redeem its
			// job (no deadline configured: wait for it).
			v, ok := f.t.ring.GetTimeout(f.p, f.deadline)
			if !ok {
				f.giveUp()
				continue
			}
			f.handleRing(v.(int))
			continue
		}
		d := f.nearestDue() - f.p.Now()
		if d <= 0 {
			f.expire()
			continue
		}
		if v, ok := f.t.ring.GetTimeout(f.p, d); ok {
			f.handleRing(v.(int))
		} else {
			f.expire()
		}
	}
}

// pop takes the next job of queue q: original jobs first, then retries.
func (f *farmRun) pop(q int) (int, bool) {
	if f.head[q] < len(f.src.Queues[q]) {
		f.head[q]++
		return f.base[q] + f.head[q] - 1, true
	}
	if len(f.retry[q]) > 0 {
		g := f.retry[q][0]
		f.retry[q] = f.retry[q][1:]
		return g, true
	}
	return 0, false
}

// dispatch hands queued jobs to free, trusted slaves in slave-ring
// order — with every slave idle this primes them with the first jobs
// of their queues.
func (f *farmRun) dispatch() {
	for i, s := range f.t.Slaves {
		if !f.idle[i] || f.black[i] || f.suspect[i] {
			continue
		}
		q := f.queueOf[i]
		for {
			g, ok := f.pop(q)
			if !ok {
				break
			}
			if f.done[g] || f.lost[g] {
				continue
			}
			if f.maxAttempts > 0 && f.attempts[g] >= f.maxAttempts {
				f.markLost(g)
				continue
			}
			f.attempts[g]++
			if last := f.lastSlave[g]; last != none {
				f.ft.Retries++
				if last != i {
					f.ft.Reassigned++
				}
			}
			f.lastSlave[g] = i
			f.idle[i] = false
			f.t.sendJob(f.p, s, f.src.Queues[q][g-f.base[q]])
			f.inflight[i], f.cur[i] = g, g
			f.due[i] = f.p.Now() + f.deadline
			f.nInflight++
			break
		}
	}
}

// handleRing collects from slave i, which raised its ready flag.
func (f *farmRun) handleRing(i int) {
	m, ok := f.t.collectFrom(f.p, i, f.resultTimeout, &f.st)
	g := f.inflight[i]
	if g != none {
		f.inflight[i] = none
		f.nInflight--
	}
	f.suspect[i] = false
	if !ok {
		// The slave rang but its result never completed (died or
		// stalled mid-transfer).
		f.fail(i)
		f.requeue(i, g)
		return
	}
	if m.Corrupt {
		// The slave did the work; the wire mangled the result. Retry
		// without penalising the slave.
		f.ft.CorruptDetected++
		f.fails[i] = 0
		f.idle[i] = true
		f.requeue(i, g)
		return
	}
	f.fails[i] = 0
	f.idle[i] = true
	// A slave holds at most one job (a suspect slave gets no new work
	// until it rings), so the result is for the job it last received,
	// even if that job was presumed lost meanwhile.
	g = f.cur[i]
	if g == none {
		return
	}
	if f.done[g] {
		f.ft.DuplicatesDropped++
		return
	}
	f.done[g] = true
	if f.lost[g] {
		// A job written off as lost came back after all.
		f.lost[g] = false
		f.nLost--
		f.ft.LostJobs--
	}
	f.completed++
	f.t.cJobsDone.Inc()
	res := m.Payload.(Result)
	f.st.JobsPerSlave[res.Slave]++
	if f.collect != nil {
		f.collect(res)
	}
}

// fail charges slave i one failure (blacklisting it at MaxFailures in a
// row) and withholds new work until it rings again.
func (f *farmRun) fail(i int) {
	f.ft.Timeouts++
	f.fails[i]++
	if f.fails[i] >= f.maxFailures && !f.black[i] {
		f.black[i] = true
		f.ft.Blacklisted = append(f.ft.Blacklisted, f.t.Slaves[i])
	}
	f.suspect[i] = true
	f.idle[i] = false
}

// requeue puts job g, last dispatched to slave i, back on that slave's
// queue unless it is already settled.
func (f *farmRun) requeue(i, g int) {
	if g != none && !f.done[g] && !f.lost[g] {
		q := f.queueOf[i]
		f.retry[q] = append(f.retry[q], g)
	}
}

func (f *farmRun) markLost(g int) {
	f.lost[g] = true
	f.nLost++
	f.ft.LostJobs++
}

// giveUp writes off every job still queued.
func (f *farmRun) giveUp() {
	for q := range f.src.Queues {
		for g, ok := f.pop(q); ok; g, ok = f.pop(q) {
			if !f.done[g] && !f.lost[g] {
				f.markLost(g)
			}
		}
	}
}

func (f *farmRun) anySuspect() bool {
	for _, s := range f.suspect {
		if s {
			return true
		}
	}
	return false
}

// nearestDue is the earliest deadline of a job in flight (+Inf without
// deadlines).
func (f *farmRun) nearestDue() float64 {
	nearest := math.Inf(1)
	for i, g := range f.inflight {
		if g != none && f.due[i] < nearest {
			nearest = f.due[i]
		}
	}
	return nearest
}

// expire presumes lost every job in flight past its deadline, in
// slave-ring order for determinism.
func (f *farmRun) expire() {
	now := f.p.Now()
	for i, g := range f.inflight {
		if g == none || f.due[i] > now {
			continue
		}
		f.inflight[i] = none
		f.nInflight--
		f.fail(i)
		f.requeue(i, g)
	}
}
