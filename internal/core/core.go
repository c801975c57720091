// Package core implements rckAlign, the paper's primary contribution: a
// master–slaves all-vs-all protein structure comparison application for
// the SCC built on the rckskel skeleton library. The master core loads
// every structure once, generates the pairwise job list, and FARMs the
// jobs out to slave cores; slaves run TM-align on received structure
// pairs and return results over the mesh.
//
// The expensive TM-align computations are executed natively (once per
// pair, in parallel on the host) and the simulation replays their
// measured operation counts as simulated compute time on the modelled
// P54C cores — see DESIGN.md.
//
// All run variants (flat, hierarchical, tiled) are thin compositions of
// the internal/farm run harness, which owns runtime construction, slave
// placement, result collection and reporting.
package core

import (
	"fmt"

	"rckalign/internal/costmodel"
	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/metrics"
	"rckalign/internal/pairstore"
	"rckalign/internal/pdb"
	"rckalign/internal/prune"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
	"rckalign/internal/trace"
)

// StructBytes models the wire size of one structure (CA coordinates as
// three float64 plus residue metadata), as the master sends it to a
// slave.
func StructBytes(residues int) int { return 32 + 25*residues }

// FileBytes models the on-disk PDB size of a chain (one 80-column ATOM
// record per residue plus header/footer), for the NFS baseline.
func FileBytes(residues int) int { return 200 + 81*residues }

// ResultBytes models the wire size of one comparison result (scores plus
// the alignment map).
func ResultBytes(len2 int) int { return 96 + 2*len2 }

// PairResults holds the native TM-align results for every all-vs-all
// pair of a dataset, computed once and replayed by the simulators.
type PairResults struct {
	Dataset *synth.Dataset
	Pairs   []sched.Pair
	// Results[k] corresponds to Pairs[k].
	Results []*tmalign.Result
	// index maps a pair to its slot.
	index map[sched.Pair]int
}

// Get returns the result for a pair.
func (pr *PairResults) Get(p sched.Pair) *tmalign.Result { return pr.Results[pr.index[p]] }

// TotalOps sums the operation counts over all pairs.
func (pr *PairResults) TotalOps() costmodel.Counter {
	var total costmodel.Counter
	for _, r := range pr.Results {
		total.Add(r.Ops)
	}
	return total
}

// SerialSeconds returns the time a single core with the given CPU profile
// needs for the whole all-vs-all task (the paper's serial baseline),
// including loading every structure once.
func (pr *PairResults) SerialSeconds(cpu costmodel.CPU) float64 {
	ops := pr.TotalOps()
	ops.Add(costmodel.Counter{ResiduesLoaded: uint64(pr.Dataset.TotalResidues())})
	return cpu.Seconds(ops)
}

// lengths returns the per-structure chain lengths of the dataset.
func (pr *PairResults) lengths() []int {
	out := make([]int, pr.Dataset.Len())
	for i, s := range pr.Dataset.Structures {
		out[i] = s.Len()
	}
	return out
}

// ComputeAllPairs runs TM-align natively for every all-vs-all pair of
// the dataset, using up to `parallelism` host goroutines (0 = GOMAXPROCS).
// The comparisons themselves are deterministic, so the parallelism only
// affects wall-clock time, never results. It is ComputeAllPairsShared
// with a private, throwaway store; use the shared variant to reuse
// results across sweeps and configurations.
func ComputeAllPairs(ds *synth.Dataset, opt tmalign.Options, parallelism int) *PairResults {
	return ComputeAllPairsShared(ds, opt, pairstore.New(parallelism))
}

// PairKeys returns the pairstore keys of the dataset's all-vs-all pairs
// under the given TM-align options, aligned with sched.AllVsAll order.
func PairKeys(ds *synth.Dataset, opt tmalign.Options) []pairstore.Key {
	return PairKeysFor(ds, opt, sched.AllVsAll(ds.Len()))
}

// PairKeysFor returns the pairstore keys of an explicit pair subset
// (e.g. the survivors of PrunePairs), aligned with the given order.
func PairKeysFor(ds *synth.Dataset, opt tmalign.Options, pairs []sched.Pair) []pairstore.Key {
	kernel := opt.Key()
	keys := make([]pairstore.Key, len(pairs))
	for k, p := range pairs {
		keys[k] = pairstore.Key{
			Dataset: ds.Name,
			Kernel:  kernel,
			A:       ds.Structures[p.I].ID,
			B:       ds.Structures[p.J].ID,
		}
	}
	return keys
}

// ComputeAllPairsShared assembles the dataset's all-vs-all pair results
// from the store, prefetching every missing pair on the store's host
// worker pool first. Pairs already memoized (by a previous sweep point,
// experiment configuration or dataset pass under the same options) are
// reused, so N configurations cost one native evaluation per pair
// instead of N. A nil store computes serially with no memoization.
func ComputeAllPairsShared(ds *synth.Dataset, opt tmalign.Options, store *pairstore.Store) *PairResults {
	return ComputePairsShared(ds, opt, store, sched.AllVsAll(ds.Len()))
}

// ComputePairsShared is ComputeAllPairsShared restricted to an explicit
// pair subset: only the listed pairs are evaluated (natively, through
// the store) and only they appear in the returned PairResults. This is
// the compute path behind pruning — skipped pairs never reach the
// TM-align kernel, the farm job builders, or the -scores-out dump.
func ComputePairsShared(ds *synth.Dataset, opt tmalign.Options, store *pairstore.Store, pairs []sched.Pair) *PairResults {
	pr := &PairResults{
		Dataset: ds,
		Pairs:   pairs,
		Results: make([]*tmalign.Result, len(pairs)),
		index:   make(map[sched.Pair]int, len(pairs)),
	}
	for k, p := range pairs {
		pr.index[p] = k
	}
	keys := PairKeysFor(ds, opt, pairs)
	compute := func(k int) any {
		p := pairs[k]
		return tmalign.Compare(ds.Structures[p.I], ds.Structures[p.J], opt)
	}
	store.Prefetch(keys, compute)
	for k := range pairs {
		k := k
		pr.Results[k] = store.Get(keys[k], func() any { return compute(k) }).(*tmalign.Result)
	}
	return pr
}

// PrunePairs applies the opt-in similarity pre-filter to the dataset's
// all-vs-all pair list: per-structure features (length, secondary
// structure composition, sequence) are extracted once, every pair's
// conservative TM upper bound is evaluated, and pairs bounded below
// threshold are dropped. The returned pair list (canonical order
// preserved) feeds ComputePairsShared so skipped pairs never run the
// TM-align kernel; the report carries the skip accounting for
// farm.Report.Prune.
func PrunePairs(ds *synth.Dataset, threshold float64) ([]sched.Pair, *prune.Report) {
	f := prune.New(threshold)
	feats := make([]prune.Features, ds.Len())
	for i, s := range ds.Structures {
		feats[i] = prune.Extract(s.CAs(), s.Sequence())
	}
	all := sched.AllVsAll(ds.Len())
	kept := make([]sched.Pair, 0, len(all))
	for _, p := range all {
		if !f.Skip(&feats[p.I], &feats[p.J]) {
			kept = append(kept, p)
		}
	}
	rep := f.Report
	return kept, &rep
}

// DeadlineMargin is the safety factor DeriveJobDeadline applies on top
// of the most expensive job's compute time, covering staging, transfer
// and discovery latency so a healthy slave never trips its deadline.
const DeadlineMargin = 3.0

// DeriveJobDeadline returns the default fault-tolerant job deadline for
// a workload: DeadlineMargin times the compute seconds of the most
// expensive pair at the given per-core op scale.
func DeriveJobDeadline(pr *PairResults, cpu costmodel.CPU, opScale float64) float64 {
	max := 0.0
	for _, r := range pr.Results {
		if s := cpu.Seconds(r.Ops.Scaled(opScale)); s > max {
			max = s
		}
	}
	return DeadlineMargin * max
}

// SynthPairResults fabricates a PairResults for timing-only simulations
// without running native TM-align: structures carry the given chain
// lengths and each pair's operation count is a length-product DP cost.
// Scores, transforms and alignments are zero — only Ops and Len2 are
// populated, which is all the simulators consume. Resilience tests and
// sweeps use this to get a CK34-sized workload in microseconds.
func SynthPairResults(name string, lengths []int) *PairResults {
	ds := &synth.Dataset{Name: name}
	for i, l := range lengths {
		ds.Structures = append(ds.Structures, &pdb.Structure{
			ID:       fmt.Sprintf("%s-%03d", name, i),
			Residues: make([]pdb.Residue, l),
		})
	}
	pairs := sched.AllVsAll(len(lengths))
	pr := &PairResults{
		Dataset: ds,
		Pairs:   pairs,
		Results: make([]*tmalign.Result, len(pairs)),
		index:   make(map[sched.Pair]int, len(pairs)),
	}
	for k, p := range pairs {
		pr.index[p] = k
		l1, l2 := lengths[p.I], lengths[p.J]
		// ~30 DP sweeps over the L1 x L2 matrix approximates TM-align's
		// iterative refinement; exact magnitude only shifts the time scale.
		pr.Results[k] = &tmalign.Result{
			Len1: l1,
			Len2: l2,
			Ops: costmodel.Counter{
				DPCells:    30 * uint64(l1) * uint64(l2),
				ScoreEvals: 30 * uint64(min(l1, l2)),
			},
		}
	}
	return pr
}

// Config tunes an rckAlign simulation run.
type Config struct {
	// Chip is the SCC model (DefaultConfig = Table I).
	Chip scc.Config
	// MasterCore runs the master process (paper: core 0, "the first core
	// supplied to the program").
	MasterCore int
	// Order is the job ordering policy (paper: FIFO).
	Order sched.Order
	// OrderSeed drives sched.Random.
	OrderSeed int64
	// Hierarchy enables the paper's proposed two-level master tree with
	// the given number of sub-masters (0 = single master, the paper's
	// implementation).
	Hierarchy int
	// PollingScale scales the master's round-robin polling discovery
	// cost (1 = the paper's busy polling, 0 = ideal event-driven
	// notification; used by the polling ablation). Values below zero are
	// treated as 1.
	PollingScale float64
	// Trace, when non-nil, receives per-core activity intervals for
	// utilization/Gantt reports. The farm layer records internally even
	// when nil, so RunResult always carries per-core utilization.
	Trace *trace.Recorder
	// Metrics, when non-nil, receives counters, histograms and time
	// series from every simulation layer and enables the
	// Report.Metrics summary block (see farm.Config.Metrics).
	Metrics *metrics.Registry
	// Collector, when non-nil, observes every collected result (the
	// farm layer's pluggable sink).
	Collector farm.Collector
	// ThreadsPerWorker is the paper's closing future-work item
	// ("building support for threading into the base library"): when 2,
	// each worker process uses both cores of its tile, finishing each
	// job in 1/(2*ThreadEfficiency) of the serial time while occupying
	// two cores. 0 or 1 = the paper's single-threaded slaves. When the
	// slave count is not a multiple, the leftover cores are not used;
	// the rounding is reported in RunResult.EffectiveCores and
	// RunResult.DroppedCores.
	ThreadsPerWorker int
	// ThreadEfficiency is the per-thread scaling efficiency (default
	// 0.9; DP and scoring parallelise well, the Kabsch solves less so).
	ThreadEfficiency float64
	// CacheStructs models the slave-side structure cache: the master
	// ships a structure to a slave only when the slave's bounded LRU
	// (of this many structures) does not already hold it, so a job's
	// request size becomes header + miss bytes. < 0 derives the
	// capacity from the per-core cache budget
	// (costmodel.DefaultCacheBudgetBytes over the dataset's mean chain
	// size); 0 disables the model — the paper's ship-both-structures
	// wire. Flat path only (hierarchical/tiled runs reject it).
	CacheStructs int
	// Batch bundles up to Batch consecutive jobs into one request
	// message with one batched result, amortizing the master's
	// dispatch/collect overhead (0 or 1 = the paper's one message per
	// job). Flat path only.
	Batch int
	// Tile is the blocked pair-ordering tile size in structures: after
	// Order is applied, pairs are regrouped into Tile x Tile blocks of
	// the pair grid so consecutive jobs reuse cached structures. 0 =
	// sched.DefaultTile when the cache, batching or affinity is
	// enabled (no blocking otherwise); < 0 forces blocking off.
	Tile int
	// Affinity assigns whole tile blocks to slaves (heaviest-first onto
	// the least-loaded queue) and farms per-slave queues, so each
	// block's structures ship to exactly one slave — maximum cache
	// reuse at the price of coarser load balance. Fault-free runs only:
	// the farm rejects a fault plan over more than one queue
	// (rckskel.ErrFaultsMultiQueue).
	Affinity bool
	// Faults, when non-nil, arms the deterministic fault injector for
	// the run and switches the master onto the fault-tolerant farm
	// protocol. The flat and multi-chip paths support faults; the
	// hierarchical and tiled paths reject a plan up front.
	Faults *fault.Plan
	// FT tunes the fault-tolerant protocol (only consulted when Faults
	// is set). A zero JobDeadlineSeconds derives a deadline from the
	// most expensive job in the workload (see DeriveJobDeadline).
	FT rckskel.FTConfig
	// Prune, when non-nil, is the pre-filter accounting of the pruning
	// pass that produced the workload (see PrunePairs); the run attaches
	// it to Report.Prune so reports carry the skip statistics. It does
	// not itself filter anything — pass PrunePairs' survivors as the
	// PairResults.
	Prune *prune.Report
}

// DefaultConfig returns the paper's setup.
func DefaultConfig() Config {
	return Config{Chip: scc.DefaultConfig(), MasterCore: 0, Order: sched.FIFO, PollingScale: 1}
}

// session maps an rckAlign config onto the farm harness.
func (cfg Config) session(slaves int) farm.Config {
	return farm.Config{
		Backend:          farm.SCCSim{Chip: cfg.Chip},
		MasterCore:       cfg.MasterCore,
		Slaves:           slaves,
		ThreadsPerWorker: cfg.ThreadsPerWorker,
		ThreadEfficiency: cfg.ThreadEfficiency,
		PollingScale:     cfg.PollingScale,
		Trace:            cfg.Trace,
		Metrics:          cfg.Metrics,
		Collector:        cfg.Collector,
		Faults:           cfg.Faults,
		FT:               cfg.FT,
	}
}

// RunResult reports one simulated rckAlign execution: the unified farm
// report (makespan, load time, farm stats, per-core utilization,
// effective core count).
type RunResult struct {
	farm.Report
}

// Speedup returns base/this in time.
func (r RunResult) Speedup(baseSeconds float64) float64 { return baseSeconds / r.TotalSeconds }

// wireEnabled reports whether the run uses the cache/batch wire model.
func (cfg Config) wireEnabled() bool {
	return cfg.CacheStructs != 0 || cfg.Batch > 1 || cfg.Affinity
}

// cacheCapacity resolves Config.CacheStructs: positive capacities pass
// through, negative ones derive from the default per-core cache budget
// and the dataset's mean chain length, 0 stays disabled.
func (cfg Config) cacheCapacity(lengths []int) int {
	if cfg.CacheStructs >= 0 {
		return cfg.CacheStructs
	}
	total := 0
	for _, l := range lengths {
		total += l
	}
	mean := 0
	if len(lengths) > 0 {
		mean = total / len(lengths)
	}
	return costmodel.CacheCapacityStructs(costmodel.DefaultCacheBudgetBytes, mean)
}

// tileSize resolves Config.Tile given the resolved cache capacity:
// explicit values pass through, negative forces blocking off, and 0
// auto-selects sched.DefaultTile when the wire model is on.
func (cfg Config) tileSize(cacheCap int) int {
	switch {
	case cfg.Tile > 0:
		return cfg.Tile
	case cfg.Tile < 0:
		return 0
	case cacheCap > 0 || cfg.Batch > 1 || cfg.Affinity:
		return sched.DefaultTile
	}
	return 0
}

// pairBytes is the classic request wire size of one pair: both
// structures' coordinates.
func pairBytes(lengths []int) func(sched.Pair) int {
	return func(p sched.Pair) int {
		return StructBytes(lengths[p.I]) + StructBytes(lengths[p.J])
	}
}

// orderedPairs applies the config's ordering policy and then the
// optional blocked tiling (tile > 1) to the pair list.
func (cfg Config) orderedPairs(pr *PairResults, lengths []int, tile int) ([]sched.Pair, error) {
	ordered, err := sched.Apply(pr.Pairs, cfg.Order, sched.LengthProductCost(lengths), cfg.OrderSeed)
	if err != nil {
		return nil, err
	}
	if tile > 1 {
		ordered = sched.Blocked(ordered, tile)
	}
	return ordered, nil
}

// buildJobs orders the pair list per the config and converts it to
// sized farm jobs.
func (cfg Config) buildJobs(pr *PairResults, lengths []int, tile int) ([]rckskel.Job, error) {
	ordered, err := cfg.orderedPairs(pr, lengths, tile)
	if err != nil {
		return nil, err
	}
	return farm.BuildJobs(ordered, 0, pairBytes(lengths))
}

// Run simulates rckAlign on `slaves` slave cores (1..NumCores-1) and
// returns the simulated timing. Results are replayed from pr, so the
// PSC output is identical to the serial baseline by construction.
// With cfg.ThreadsPerWorker = 2, the `slaves` cores are grouped into
// slaves/2 dual-threaded tile workers (an odd count leaves one core
// unused; see RunResult.DroppedCores).
func Run(pr *PairResults, slaves int, cfg Config) (RunResult, error) {
	maxSlaves := cfg.Chip.NumCores() - 1
	if slaves < 1 || slaves > maxSlaves {
		return RunResult{}, fmt.Errorf("core: slave count %d outside [1,%d]", slaves, maxSlaves)
	}
	if cfg.Hierarchy > 0 {
		if cfg.Faults != nil {
			return RunResult{}, fmt.Errorf("core: hierarchical run: %w", farm.ErrFaultsUnsupported)
		}
		if cfg.wireEnabled() {
			return RunResult{}, fmt.Errorf("core: hierarchical run does not support the cache/batch wire model")
		}
		return runHierarchical(pr, slaves, cfg)
	}
	w, ordered, err := cfg.wirePlan(pr)
	if err != nil {
		return RunResult{}, err
	}
	fcfg := cfg.session(slaves)
	fcfg.Batch = cfg.Batch
	fcfg.CacheStructs = w.cacheCap
	s, err := farm.NewSession(fcfg)
	if err != nil {
		return RunResult{}, err
	}
	src, err := cfg.startShard(s, pr, ordered, 0, w)
	if err != nil {
		return RunResult{}, err
	}
	rep, err := s.Run("", func(m *farm.Master) {
		// One-time load of every structure by the master (the design
		// choice Experiment I validates).
		m.LoadResidues(pr.Dataset.TotalResidues())
		m.Farm(src, nil)
		m.Terminate()
	})
	rep.Prune = cfg.Prune
	return RunResult{Report: rep}, err
}

// wire is a run's resolved wire shape, shared by every shard: chain
// lengths, the blocked-ordering tile, the per-slave cache capacity and
// the structure wire model PrepareJobs sizes requests with.
type wire struct {
	lengths        []int
	tile, cacheCap int
	model          farm.WireModel
}

// wirePlan resolves the run's wire shape and orders its pair list.
func (cfg Config) wirePlan(pr *PairResults) (wire, []sched.Pair, error) {
	w := wire{lengths: pr.lengths()}
	w.cacheCap = cfg.cacheCapacity(w.lengths)
	w.tile = cfg.tileSize(w.cacheCap)
	sizes := make([]int, len(w.lengths))
	for i, l := range w.lengths {
		sizes[i] = StructBytes(l)
	}
	w.model = farm.WireModel{
		StructsOf: func(j rckskel.Job) []int {
			p := j.Payload.(sched.Pair)
			return []int{p.I, p.J}
		},
		Sizes: sizes,
	}
	ordered, err := cfg.orderedPairs(pr, w.lengths, w.tile)
	return w, ordered, err
}

// startShard readies one session — the flat run's, or one chip's of a
// multi-chip run — to farm pairs: it installs the workload-derived
// fault-tolerant deadline, starts the slaves, and turns pairs into the
// session's job source (job IDs from idBase): one shared queue, or
// with Affinity one queue per worker holding whole tile blocks
// (heaviest-first onto the least-loaded queue), so each block's
// structures ship to exactly one slave. An empty shard farms nothing.
func (cfg Config) startShard(s *farm.Session, pr *PairResults, pairs []sched.Pair, idBase int, w wire) (rckskel.Source, error) {
	opScale := s.Placement().OpScale
	if cfg.Faults != nil && cfg.FT.JobDeadlineSeconds == 0 {
		d := DeriveJobDeadline(pr, cfg.Chip.CPU, opScale)
		if cfg.Batch > 1 {
			// A batch is one fault-tolerance unit of up to Batch jobs:
			// its deadline must cover them back to back.
			d *= float64(cfg.Batch)
		}
		s.SetJobDeadline(d)
	}
	handler := func(job rckskel.Job) (any, costmodel.Counter, int) {
		p := job.Payload.(sched.Pair)
		res := pr.Get(p)
		return res, res.Ops.Scaled(opScale), ResultBytes(res.Len2)
	}
	if cfg.Batch > 1 {
		handler = farm.BatchHandler(handler)
	}
	s.StartSlaves(handler)
	if len(pairs) == 0 {
		return rckskel.Source{}, nil
	}
	if !cfg.Affinity {
		jobs, err := farm.BuildJobs(pairs, idBase, pairBytes(w.lengths))
		if err != nil {
			return rckskel.Source{}, err
		}
		return rckskel.Shared(s.PrepareJobs(jobs, w.model)), nil
	}
	leads := s.Placement().WorkerLeads
	assign := sched.AffinityAssign(pairs, len(leads), w.tile, sched.LengthProductCost(w.lengths))
	queues := make([][]rckskel.Job, len(assign))
	for q, ps := range assign {
		jobs, err := farm.BuildJobs(ps, idBase, pairBytes(w.lengths))
		if err != nil {
			return rckskel.Source{}, err
		}
		idBase += len(ps)
		queues[q] = s.PrepareJobs(jobs, w.model)
	}
	queueOf := make(map[int]int, len(leads))
	for q, lead := range leads {
		queueOf[lead] = q
	}
	return rckskel.Source{Queues: queues, QueueOf: func(slave int) int { return queueOf[slave] }}, nil
}

// RunSweep simulates rckAlign for each slave count and returns the
// results in order (the paper's Experiment II sweep: 1,3,...,47).
func RunSweep(pr *PairResults, slaveCounts []int, cfg Config) ([]RunResult, error) {
	return farm.Sweep(slaveCounts, func(n int) (RunResult, error) {
		return Run(pr, n, cfg)
	})
}

// OddSlaveCounts returns the paper's sweep 1, 3, 5, ..., max.
func OddSlaveCounts(max int) []int {
	var out []int
	for n := 1; n <= max; n += 2 {
		out = append(out, n)
	}
	return out
}

// LoadDatasetDir reads every *.pdb file in a directory as a dataset, for
// users who want to run on real PDB chains instead of the synthetic
// stand-ins.
func LoadDatasetDir(name string, paths []string) (*synth.Dataset, error) {
	ds := &synth.Dataset{Name: name}
	for _, p := range paths {
		s, err := pdb.ParseFile(p)
		if err != nil {
			return nil, err
		}
		ds.Structures = append(ds.Structures, s)
	}
	if len(ds.Structures) < 2 {
		return nil, fmt.Errorf("core: dataset %s needs at least 2 structures", name)
	}
	return ds, nil
}
