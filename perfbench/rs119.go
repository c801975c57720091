package main

import (
	"fmt"
	"path/filepath"
	"time"

	"rckalign/internal/core"
	"rckalign/internal/metrics"
	"rckalign/internal/prune"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
)

// sweepPoint is one simulated run of the RS119 sweep: a flat run at
// Slaves slave cores, or a sharded run over Chips chips of 47 slaves.
type sweepPoint struct {
	Chips, Slaves int
}

func (p sweepPoint) String() string {
	if p.Chips > 1 {
		return fmt.Sprintf("chips %d", p.Chips)
	}
	return fmt.Sprintf("flat %d", p.Slaves)
}

// sweepPoints is the paper's Experiment II sweep (1, 3, ..., 47 slaves)
// followed by the multi-chip sweep at 2, 4 and 8 chips with the default
// tree gather. A quick run keeps the two ends and one chip count.
func sweepPoints(quick bool) []sweepPoint {
	var pts []sweepPoint
	flat, chips := core.OddSlaveCounts(47), []int{2, 4, 8}
	if quick {
		flat, chips = []int{1, 47}, []int{2}
	}
	for _, n := range flat {
		pts = append(pts, sweepPoint{Chips: 1, Slaves: n})
	}
	for _, c := range chips {
		pts = append(pts, sweepPoint{Chips: c, Slaves: 47})
	}
	return pts
}

// sweepRep is what one pass over the sweep measured.
type sweepRep struct {
	wall time.Duration
	// runs[k] is the host time of point k's core.RunSweep /
	// core.RunChipSweep call. Times are effective (see hostclock.go).
	runs   []time.Duration
	totals []float64 // simulated TotalSeconds per point
	jobs   int
	counts map[string]float64
}

// simCounterNames are the simulation-stack counters a sweep sums.
var simCounterNames = []string{
	"sim.events.process_wakeups", "sim.events.callbacks", "rcce.send.messages",
	"noc.transfers", "interchip.transfers", "farm.jobs.completed",
}

// rs119SweepRep runs every sweep point, one core.RunSweep or
// core.RunChipSweep call per point (each is the sweep's own per-point
// call), with a fresh metrics registry per run as rckalign does.
func rs119SweepRep(pr *core.PairResults, pts []sweepPoint, tr *Tracer) (sweepRep, error) {
	rep := sweepRep{counts: map[string]float64{}}
	ht, err := startTimer()
	if err != nil {
		return rep, err
	}
	root := tr.Begin(0, "bench", "rs119 sweep", "")
	for _, pt := range pts {
		cfg := core.DefaultConfig()
		reg := metrics.New()
		cfg.Metrics = reg
		var res []core.RunResult
		id := tr.Begin(root, "core", pt.String(), "")
		pt0, err := startTimer()
		if err != nil {
			return rep, err
		}
		if pt.Chips > 1 {
			res, err = core.RunChipSweep(pr, pt.Slaves, []int{pt.Chips}, core.MultiChipConfig{Config: cfg})
		} else {
			res, err = core.RunSweep(pr, []int{pt.Slaves}, cfg)
		}
		tr.End(id)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", pt, err)
		}
		run, err := pt0.stop()
		if err != nil {
			return rep, err
		}
		rep.runs = append(rep.runs, run.effective())
		rep.totals = append(rep.totals, res[0].TotalSeconds)
		rep.jobs += len(pr.Pairs)
		for _, n := range simCounterNames {
			rep.counts[n] += counterSum(reg, n)
		}
	}
	tr.End(root)
	ws, err := ht.stop()
	rep.wall = ws.effective()
	return rep, err
}

// checkSweep compares every point's simulated time with the digest and
// the farm's completed jobs with the pair count; it returns the number
// of points that failed.
func checkSweep(rep sweepRep, pts []sweepPoint, digest simDigest, out *outcome) int {
	failed := 0
	for k, pt := range pts {
		if err := digest.check(pt.String(), rep.totals[k]); err != nil {
			out.check(err)
			failed++
		}
	}
	if got := rep.counts["farm.jobs.completed"]; got != float64(rep.jobs) {
		out.check(fmt.Errorf("farm completed %v jobs, want %d", got, rep.jobs))
	}
	return failed
}

// rs119Setup is the sweep's set-up: the dataset and its committed pair
// cache.
type rs119Setup struct {
	pr          *core.PairResults
	synth, load time.Duration
}

func loadRS119(root string) (rs119Setup, error) {
	t := time.Now()
	ds := synth.RS119()
	s := rs119Setup{synth: time.Since(t)}
	t = time.Now()
	pr, err := core.LoadPairResults(ds, filepath.Join(root, "testdata", "paircache", "RS119.gob"))
	s.load = time.Since(t)
	s.pr = pr
	return s, err
}

func runRS119Sweep(o options) (*outcome, error) {
	out := newOutcome()
	digest, err := loadDigest(o.Root)
	if err != nil {
		return nil, err
	}
	var synths, loads []float64
	st, setup, err := medianSetup(func() (rs119Setup, error) {
		s, err := loadRS119(o.Root)
		synths, loads = append(synths, ms(s.synth)), append(loads, ms(s.load))
		return s, err
	}, nil)
	if err != nil {
		return nil, err
	}
	out.Metrics["setup_s"] = setup
	pts := sweepPoints(o.Quick)
	out.notef("dataset RS119: %d pairs from the committed cache; %d sweep points", len(st.pr.Pairs), len(pts))

	var reps []sweepRep
	budget := time.Duration(o.Seconds * float64(time.Second))
	if o.Trace {
		budget = 0
	}
	err = repeatFor(budget, func() error {
		rep, err := rs119SweepRep(st.pr, pts, nil)
		if err != nil {
			return err
		}
		out.Failed += checkSweep(rep, pts, digest, out)
		out.Attempted += len(pts)
		reps = append(reps, rep)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// wall_s sums each sweep point's median time over the repetitions:
	// host noise is mostly shorter than a sweep, so a per-point median
	// damps it better than the median of whole sweeps.
	var walls, runs []float64
	wall := 0.0
	for k := range pts {
		var point []float64
		for _, r := range reps {
			point = append(point, r.runs[k].Seconds())
		}
		wall += median(point)
	}
	for _, r := range reps {
		walls = append(walls, r.wall.Seconds())
		for _, d := range r.runs {
			runs = append(runs, ms(d))
		}
	}
	out.Metrics["wall_s"] = wall
	out.Metrics["pairs_per_s"] = float64(reps[0].jobs) / wall
	out.Metrics["op_p50_ms"] = quantile(runs, 0.50)
	out.Metrics["op_tail_ms"] = tail(runs)
	out.notef("%d sweeps (%.3f s each); pairs = simulated pair jobs; op = one simulated run, %d samples, tail = p%g",
		len(reps), walls, len(runs), 100*tailLevel(len(runs)))
	if o.Trace {
		zeroMetrics(out)
		out.Metrics["setup.synth_ms"] = median(synths)
		out.Metrics["setup.cache_load_ms"] = median(loads)
		if err := traceRS119(o, st.pr, pts, digest, reps[0], out); err != nil {
			return nil, err
		}
	}
	return out, setRSS(out)
}

func traceRS119(o options, pr *core.PairResults, pts []sweepPoint, digest simDigest, untraced sweepRep, out *outcome) error {
	_, profPath := traceFiles(o)
	stop, err := startProfile(profPath)
	if err != nil {
		return err
	}
	tr := newTracer()
	rep, err := rs119SweepRep(pr, pts, tr)
	hi := time.Since(tr.t0).Seconds()
	if err == nil {
		err = pruneStats(pr, o.Quick, tr, out)
	}
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		return err
	}
	out.Failed += checkSweep(rep, pts, digest, out)
	out.Attempted += len(pts)

	var flat []float64
	var flatSum, chipSum time.Duration
	for k, pt := range pts {
		if pt.Chips > 1 {
			chipSum += rep.runs[k]
		} else {
			flat = append(flat, ms(rep.runs[k]))
			flatSum += rep.runs[k]
		}
	}
	m := out.Metrics
	m["core.run_ms.p50"] = median(flat)
	m["core.run_ms.sum"] = ms(flatSum)
	m["core.multichip_ms.sum"] = ms(chipSum)
	m["sim.process_wakeups"] = rep.counts["sim.events.process_wakeups"]
	m["sim.callbacks"] = rep.counts["sim.events.callbacks"]
	m["sim.events_per_s"] = (m["sim.process_wakeups"] + m["sim.callbacks"]) / (flatSum + chipSum).Seconds()
	for _, n := range []string{"rcce.send.messages", "noc.transfers", "interchip.transfers", "farm.jobs.completed"} {
		m[n] = rep.counts[n]
	}
	return finishTrace(o, out, tr, 0, hi, rep.wall, untraced.wall)
}

// pruneThreshold is the TM threshold the prune layer is measured at.
const pruneThreshold = 0.5

// pruneStats runs the similarity pre-filter over the RS119 pairs and
// checks each skip against the cached true score: prune.missed counts
// skipped pairs whose true mean TM reaches the threshold. A quick run
// filters the pairs of the first 20 chains only.
func pruneStats(pr *core.PairResults, quick bool, tr *Tracer, out *outcome) error {
	ds := pr.Dataset
	n := ds.Len()
	if quick {
		n = 20
	}
	root := tr.Begin(0, "bench", "prune", "")
	id := tr.Begin(root, "prune", "Extract", "")
	feats := make([]prune.Features, n)
	for i := 0; i < n; i++ {
		feats[i] = prune.Extract(ds.Structures[i].CAs(), ds.Structures[i].Sequence())
	}
	tr.End(id)
	f := prune.New(pruneThreshold)
	missed := 0
	var skipTime time.Duration
	id = tr.Begin(root, "prune", "Filter.Skip", "")
	for _, p := range sched.AllVsAll(n) {
		t := time.Now()
		skip := f.Skip(&feats[p.I], &feats[p.J])
		skipTime += time.Since(t)
		if skip && pr.Get(p).TM() >= pruneThreshold {
			missed++
		}
	}
	tr.End(id)
	tr.End(root)
	if f.Report.Total == 0 {
		return fmt.Errorf("prune: no pairs filtered")
	}
	out.Metrics["prune.us_per_pair"] = float64(skipTime) / float64(time.Microsecond) / float64(f.Report.Total)
	out.Metrics["prune.skip_frac"] = f.Report.SkipFraction()
	out.Metrics["prune.missed"] = float64(missed)
	out.notef("prune at T=%g: %d of %d pairs skipped, %d with true TM >= T", pruneThreshold, f.Report.Skipped, f.Report.Total, missed)
	return nil
}
