package main

import (
	"fmt"
	"time"

	"rckalign/internal/core"
	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/metrics"
	"rckalign/internal/pairstore"
	"rckalign/internal/sched"
	"rckalign/internal/seqalign"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
	"rckalign/internal/tmscore"
)

// ck34Workers is the host parallelism of the cold pass (-hostpar 2): a
// fixed count, so the workload does the same work on any host.
const ck34Workers = 2

// ck34Slaves is the simulated farm size of the pass's core.Run.
const ck34Slaves = 47

// quickChains is the CK34 prefix a quick run compares (66 pairs).
const quickChains = 12

// ck34Pass is what one cold all-vs-all pass measured. wall, compute
// and prefetch are effective host times (see hostclock.go).
type ck34Pass struct {
	wall, compute, prefetch, run time.Duration
	// ran is the share of the compute phase's runnable time the process
	// ran (1 - steal share); compares are scaled by it.
	ran float64
	// compares[k] is the tmalign.Compare time of pair k, scaled by ran.
	compares []time.Duration
	pr       *core.PairResults
	store    *pairstore.Store
	reg      *metrics.Registry
}

// ck34ColdPass is `rckalign -dataset CK34 -cache= -hostpar 2 -slaves
// 47`: every pair through a fresh 2-worker pair store, assembled by
// core.ComputeAllPairsShared, then one simulated farm run. The compare
// function handed to the store's Prefetch is the one
// ComputeAllPairsShared uses, wrapped in a timer.
func ck34ColdPass(ds *synth.Dataset, tr *Tracer) (ck34Pass, error) {
	opt := tmalign.DefaultOptions()
	pairs := sched.AllVsAll(ds.Len())
	p := ck34Pass{compares: make([]time.Duration, len(pairs))}
	t0 := time.Now()
	ht, err := startTimer()
	if err != nil {
		return p, err
	}
	root := tr.Begin(0, "bench", "ck34-cold pass", "")
	p.store = pairstore.New(ck34Workers)
	keys := core.PairKeys(ds, opt)
	pf := tr.Begin(root, "pairstore", "Store.Prefetch", "")
	p.store.Prefetch(keys, func(k int) any {
		pair := pairs[k]
		req := ""
		if tr != nil {
			req = fmt.Sprintf("pair-%d-%d", pair.I, pair.J)
		}
		id := tr.Begin(pf, "tmalign", "Compare", req)
		t := time.Now()
		r := tmalign.Compare(ds.Structures[pair.I], ds.Structures[pair.J], opt)
		p.compares[k] = time.Since(t)
		tr.End(id)
		return r
	})
	tr.End(pf)
	p.prefetch = time.Since(t0)
	as := tr.Begin(root, "core", "ComputeAllPairsShared", "")
	p.pr = core.ComputeAllPairsShared(ds, opt, p.store)
	tr.End(as)
	cs, err := ht.stop()
	if err != nil {
		return p, err
	}
	p.compute, p.ran = cs.effective(), 1-cs.stealFrac()
	p.prefetch = time.Duration(float64(p.prefetch) * p.ran)
	for k := range p.compares {
		p.compares[k] = time.Duration(float64(p.compares[k]) * p.ran)
	}

	cfg := core.DefaultConfig()
	p.reg = metrics.New()
	cfg.Metrics = p.reg
	rs := tr.Begin(root, "core", "Run", "")
	tRun := time.Now()
	rr, err := core.Run(p.pr, ck34Slaves, cfg)
	p.run = time.Since(tRun)
	tr.End(rs)
	tr.End(root)
	if err != nil {
		return p, fmt.Errorf("core.Run: %w", err)
	}
	ws, err := ht.stop()
	if err != nil {
		return p, err
	}
	p.wall = ws.effective()
	if !(rr.TotalSeconds > 0) {
		return p, fmt.Errorf("core.Run: simulated time %v", rr.TotalSeconds)
	}
	return p, nil
}

// checkPass compares every pair's score line with the golden and the
// farm's completed-job count with the pair count. It returns the number
// of pairs that failed.
func checkPass(p ck34Pass, golden goldenScores, out *outcome) int {
	failed := 0
	for k, pair := range p.pr.Pairs {
		if err := golden.check(pair.I, pair.J, p.pr.Results[k]); err != nil {
			out.check(err)
			failed++
		}
	}
	if got := counterSum(p.reg, "farm.jobs.completed"); got != float64(len(p.pr.Pairs)) {
		out.check(fmt.Errorf("farm completed %v jobs, want %d", got, len(p.pr.Pairs)))
	}
	return failed
}

func ck34Dataset(o options) *synth.Dataset {
	ds := synth.CK34()
	if o.Quick {
		ds.Structures = ds.Structures[:quickChains]
	}
	return ds
}

func runCK34Cold(o options) (*outcome, error) {
	out := newOutcome()
	golden, err := loadGolden(o.Root)
	if err != nil {
		return nil, err
	}
	ds, setup, err := medianSetup(func() (*synth.Dataset, error) { return ck34Dataset(o), nil }, nil)
	if err != nil {
		return nil, err
	}
	out.Metrics["setup_s"] = setup
	out.notef("dataset %s: %d chains, %d pairs; %d host workers, %d simulated slaves",
		ds.Name, ds.Len(), ds.Pairs(), ck34Workers, ck34Slaves)

	var passes []ck34Pass
	budget := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		budget = 0 // one untraced pass, for the tracing overhead
	}
	err = repeatFor(budget, func() error {
		p, err := ck34ColdPass(ds, nil)
		if err != nil {
			return err
		}
		out.Failed += checkPass(p, golden, out)
		out.Attempted += len(p.pr.Pairs) + 1
		passes = append(passes, p)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var walls, rates, compares []float64
	for _, p := range passes {
		walls = append(walls, p.wall.Seconds())
		rates = append(rates, float64(len(p.pr.Pairs))/p.compute.Seconds())
		for _, c := range p.compares {
			compares = append(compares, ms(c))
		}
	}
	out.Metrics["wall_s"] = median(walls)
	out.Metrics["pairs_per_s"] = median(rates)
	out.Metrics["op_p50_ms"] = quantile(compares, 0.50)
	out.Metrics["op_tail_ms"] = tail(compares)
	out.notef("%d passes (%.3f s each); op = one tmalign.Compare, %d samples, tail = p%g",
		len(passes), walls, len(compares), 100*tailLevel(len(compares)))
	if o.Trace {
		if err := traceCK34(o, ds, golden, passes[0], out); err != nil {
			return nil, err
		}
		out.Metrics["setup.synth_ms"] = setup * 1e3
	}
	return out, setRSS(out)
}

// traceCK34 runs one traced pass under the CPU profiler, replays the
// kernel's sub-layers on the pass's own alignments, and records the
// per-layer metrics.
func traceCK34(o options, ds *synth.Dataset, golden goldenScores, untraced ck34Pass, out *outcome) error {
	zeroMetrics(out)
	_, profPath := traceFiles(o)
	stop, err := startProfile(profPath)
	if err != nil {
		return err
	}
	tr := newTracer()
	p, err := ck34ColdPass(ds, tr)
	hi := time.Since(tr.t0).Seconds()
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	out.Failed += checkPass(p, golden, out)
	out.Attempted += len(p.pr.Pairs) + 1

	var cmp []float64
	var ops costmodel.Counter
	for k, c := range p.compares {
		cmp = append(cmp, ms(c))
		ops.Add(p.pr.Results[k].Ops)
	}
	m := out.Metrics
	m["tmalign.compare_ms.p50"] = quantile(cmp, 0.50)
	m["tmalign.compare_ms.p98"] = quantile(cmp, 0.98)
	m["tmalign.compare_ms.max"] = quantile(cmp, 1)
	m["kernel.dp_cells"] = float64(ops.DPCells)
	m["kernel.kabsch_calls"] = float64(ops.KabschCalls)
	m["kernel.kabsch_points"] = float64(ops.KabschPoints)
	m["kernel.score_evals"] = float64(ops.ScoreEvals)
	m["kernel.dp_cells_per_s"] = float64(ops.DPCells) / (sum(cmp) / 1e3)
	ps := p.store.StatsSnapshot()
	m["pairstore.hits"] = float64(ps.Hits)
	m["pairstore.misses"] = float64(ps.Misses)
	m["pairstore.entries"] = float64(ps.Entries)
	m["pairstore.prefetch_s"] = p.prefetch.Seconds()
	m["pairstore.worker_busy_frac"] = sum(cmp) / 1e3 / (ck34Workers * p.prefetch.Seconds())
	m["core.run_ms.p50"] = ms(p.run)
	m["core.run_ms.sum"] = ms(p.run)
	simCounts(m, p.reg, p.run)

	replayKernel(ds, p.pr, tr, out)
	return finishTrace(o, out, tr, 0, hi, p.wall, untraced.wall)
}

// replayKernel times the kernel's sub-layer entry points on each
// pair's final alignment (Result.Invmap): the Kabsch superposition
// (geom), the TM-score rotation search (tmscore) and one DP alignment
// over the superposed distance matrix (seqalign), as TM-align's final
// pass and refinement loop call them.
func replayKernel(ds *synth.Dataset, pr *core.PairResults, tr *Tracer, out *outcome) {
	opt := tmalign.DefaultOptions()
	root := tr.Begin(0, "bench", "kernel replay", "")
	nw := seqalign.NewAligner()
	var sup, search, align []float64
	for k, pair := range pr.Pairs {
		r := pr.Results[k]
		x, y := ds.Structures[pair.I].CAs(), ds.Structures[pair.J].CAs()
		var xa, ya []geom.Vec3
		for j, i := range r.Invmap {
			if i >= 0 {
				xa, ya = append(xa, x[i]), append(ya, y[j])
			}
		}
		if len(xa) < 3 {
			continue
		}
		var ops costmodel.Counter
		req := fmt.Sprintf("pair-%d-%d", pair.I, pair.J)

		id := tr.Begin(root, "geom", "Superpose", req)
		t := time.Now()
		geom.Superpose(xa, ya)
		sup = append(sup, float64(time.Since(t))/float64(time.Microsecond))
		tr.End(id)

		sp := tmscore.SearchParams(len(x), len(y))
		id = tr.Begin(root, "tmscore", "Params.Search", req)
		t = time.Now()
		sp.Search(xa, ya, opt.FinalStep, &ops)
		search = append(search, ms(time.Since(t)))
		tr.End(id)

		xt := make([]geom.Vec3, len(x))
		r.Transform.ApplyAll(xt, x)
		d02 := sp.D0 * sp.D0
		mat := make([]float64, len(x)*len(y))
		for i := range x {
			for j := range y {
				mat[i*len(y)+j] = 1 / (1 + xt[i].Dist2(y[j])/d02)
			}
		}
		inv := make([]int, len(y))
		id = tr.Begin(root, "seqalign", "Aligner.AlignMatrix", req)
		t = time.Now()
		nw.AlignMatrix(len(x), len(y), mat, -0.6, inv, &ops)
		align = append(align, float64(time.Since(t))/float64(time.Microsecond))
		tr.End(id)
	}
	tr.End(root)
	out.Metrics["geom.superpose_us.p50"] = median(sup)
	out.Metrics["tmscore.search_ms.p50"] = median(search)
	out.Metrics["seqalign.align_us.p50"] = median(align)
	out.notef("kernel replay: %d alignments", len(sup))
}

// counterSum sums a counter over all its label sets.
func counterSum(reg *metrics.Registry, name string) float64 {
	total := 0.0
	for _, c := range reg.Snapshot().Counters {
		if c.Key == name || len(c.Key) > len(name) && c.Key[:len(name)+1] == name+"{" {
			total += c.Value
		}
	}
	return total
}

// simCounts records the simulation stack's exact event and message
// counts from a run's registry, and the engine's event rate over the
// host time the runs took.
func simCounts(m map[string]float64, reg *metrics.Registry, host time.Duration) {
	wakes := counterSum(reg, "sim.events.process_wakeups")
	cbs := counterSum(reg, "sim.events.callbacks")
	m["sim.process_wakeups"] = wakes
	m["sim.callbacks"] = cbs
	m["sim.events_per_s"] = (wakes + cbs) / host.Seconds()
	m["rcce.send.messages"] = counterSum(reg, "rcce.send.messages")
	m["noc.transfers"] = counterSum(reg, "noc.transfers")
	m["interchip.transfers"] = counterSum(reg, "interchip.transfers")
	m["farm.jobs.completed"] = counterSum(reg, "farm.jobs.completed")
}
