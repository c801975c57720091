package farm

import (
	"errors"
	"fmt"
)

// Typed configuration errors, matchable with errors.Is. Place and
// NewSession wrap them with the offending values.
var (
	// ErrNoBackend reports a Config with no runtime backend.
	ErrNoBackend = errors.New("no backend")
	// ErrMasterCore reports an on-chip master core outside the chip.
	ErrMasterCore = errors.New("master core out of range")
	// ErrSlaveCount reports a slave count below 1 or beyond the cores
	// the backend can offer.
	ErrSlaveCount = errors.New("slave count out of range")
	// ErrWorkerGrouping reports too few slave cores to form even one
	// thread-grouped worker.
	ErrWorkerGrouping = errors.New("cannot form a worker")
	// ErrNoJobs reports a nil or empty job list handed to a farm.
	ErrNoJobs = errors.New("no jobs")
	// ErrPartitionSizes reports a contiguous partition whose sizes do
	// not cover the core list exactly.
	ErrPartitionSizes = errors.New("partition sizes do not cover cores")
	// ErrFaultPlan reports an invalid fault plan (out-of-range cores,
	// faults aimed at the master, bad probabilities).
	ErrFaultPlan = errors.New("invalid fault plan")
	// ErrFaultsUnsupported reports a run path that cannot execute
	// fault-tolerantly (the hierarchical and tiled masters).
	ErrFaultsUnsupported = errors.New("fault injection unsupported for this path")
)

// Placement assigns slave cores and groups them into worker processes.
type Placement struct {
	// Master is the master's core (HostMaster when off-chip).
	Master int
	// Cores lists the placed slave cores in id order (master skipped).
	Cores []int
	// WorkerLeads holds the first core of each worker process; the
	// worker's thread partners are the following Threads-1 cores.
	WorkerLeads []int
	// Threads is the per-worker thread count (>= 1).
	Threads int
	// OpScale scales a job's operation counts on a multi-threaded
	// worker: 1/(Threads*efficiency), 1 for single-threaded workers.
	OpScale float64
	// EffectiveCores = len(WorkerLeads) * Threads.
	EffectiveCores int
	// DroppedCores counts placed cores that could not form a complete
	// worker (Slaves mod Threads leftovers).
	DroppedCores int
}

// Place computes the slave placement for a config: cfg.Slaves cores in
// id order, skipping the master core when it is on-chip, grouped into
// workers of cfg.ThreadsPerWorker cores.
func Place(cfg Config) (Placement, error) {
	if cfg.Backend == nil {
		return Placement{}, fmt.Errorf("farm: %w", ErrNoBackend)
	}
	numCores := cfg.Backend.NumCores()
	maxSlaves := numCores
	if cfg.MasterCore != HostMaster {
		if cfg.MasterCore < 0 || cfg.MasterCore >= numCores {
			return Placement{}, fmt.Errorf("farm: %w: core %d outside [0,%d)", ErrMasterCore, cfg.MasterCore, numCores)
		}
		maxSlaves--
	}
	if cfg.Slaves < 1 || cfg.Slaves > maxSlaves {
		return Placement{}, fmt.Errorf("farm: %w: %d outside [1,%d]", ErrSlaveCount, cfg.Slaves, maxSlaves)
	}
	threads := cfg.ThreadsPerWorker
	if threads < 1 {
		threads = 1
	}
	eff := cfg.ThreadEfficiency
	if eff <= 0 || eff > 1 {
		eff = 0.9
	}
	workers := cfg.Slaves / threads
	if workers < 1 {
		return Placement{}, fmt.Errorf("farm: %w: %d cores for a %d-thread worker", ErrWorkerGrouping, cfg.Slaves, threads)
	}
	opScale := 1.0
	if threads > 1 {
		opScale = 1.0 / (float64(threads) * eff)
	}
	cores := make([]int, 0, cfg.Slaves)
	for c := 0; len(cores) < cfg.Slaves; c++ {
		if c == cfg.MasterCore {
			continue
		}
		cores = append(cores, c)
	}
	leads := make([]int, 0, workers)
	for w := 0; w < workers; w++ {
		leads = append(leads, cores[w*threads])
	}
	return Placement{
		Master:         cfg.MasterCore,
		Cores:          cores,
		WorkerLeads:    leads,
		Threads:        threads,
		OpScale:        opScale,
		EffectiveCores: workers * threads,
		DroppedCores:   cfg.Slaves - workers*threads,
	}, nil
}

// PartitionContiguous splits cores into len(sizes) contiguous groups
// (sizes must be non-negative and sum to len(cores)): the placement
// used to dedicate core ranges to different comparison methods. The
// sizes are validated before any slicing, so a misconfigured partition
// comes back as an ErrPartitionSizes diagnostic instead of a
// slice-bounds panic.
func PartitionContiguous(cores []int, sizes []int) ([][]int, error) {
	total := 0
	for i, n := range sizes {
		if n < 0 {
			return nil, fmt.Errorf("farm: %w: size[%d] = %d is negative", ErrPartitionSizes, i, n)
		}
		total += n
	}
	if total != len(cores) {
		return nil, fmt.Errorf("farm: %w: sizes %v cover %d of %d cores", ErrPartitionSizes, sizes, total, len(cores))
	}
	out := make([][]int, len(sizes))
	idx := 0
	for i, n := range sizes {
		out[i] = cores[idx : idx+n]
		idx += n
	}
	return out, nil
}

// PartitionRoundRobin deals cores one by one into n groups (group i
// receives cores i, i+n, i+2n, ...), the assignment used by the
// hierarchical master tree and the one-vs-all method split.
func PartitionRoundRobin(cores []int, n int) [][]int {
	out := make([][]int, n)
	for k, c := range cores {
		out[k%n] = append(out[k%n], c)
	}
	return out
}
