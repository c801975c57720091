package core

import (
	"fmt"

	"rckalign/internal/costmodel"
	"rckalign/internal/farm"
	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
)

// The paper's closing future-work item: "building support for threading
// into the base library will be investigated, since this can be
// critical when the protein structure datasets are too large to be
// loaded into memory at once." RunTiled implements the standard
// out-of-core answer: the master holds at most MemoryBudget residues,
// loading the dataset in blocks and farming (a) the all-vs-all pairs
// inside each block and (b) the cross pairs of each block pair, so
// every distinct pair is executed exactly once while peak memory stays
// within two blocks.

// TiledConfig tunes an out-of-core run.
type TiledConfig struct {
	Config
	// MemoryBudgetResidues caps the residues resident at the master
	// (two blocks at a time must fit). Must hold at least the two
	// largest chains.
	MemoryBudgetResidues int
	// ReloadSecondsPerResidue is the master's cost to (re)load one
	// residue from storage when a block is swapped in (NFS/disk, not
	// mesh).
	ReloadSecondsPerResidue float64
}

// DefaultTiledConfig returns a tiled setup with the paper's chip and a
// disk-like reload cost.
func DefaultTiledConfig(budgetResidues int) TiledConfig {
	return TiledConfig{
		Config:                  DefaultConfig(),
		MemoryBudgetResidues:    budgetResidues,
		ReloadSecondsPerResidue: 4e-6, // ~80 bytes/residue at ~20 MB/s NFS
	}
}

// TiledRunResult extends RunResult with block accounting.
type TiledRunResult struct {
	RunResult
	// Blocks is the number of dataset blocks used.
	Blocks int
	// BlockLoads counts block load events (including reloads).
	BlockLoads int
	// ReloadSeconds is the total simulated time spent (re)loading
	// blocks.
	ReloadSeconds float64
}

// blockPartition splits structure indices into contiguous blocks whose
// residue totals fit half the budget (so any two blocks co-reside).
func blockPartition(lengths []int, budget int) ([][]int, error) {
	half := budget / 2
	var blocks [][]int
	var cur []int
	used := 0
	for i, l := range lengths {
		if l > half {
			return nil, fmt.Errorf("core: chain %d (%d residues) exceeds half the memory budget (%d)", i, l, half)
		}
		if used+l > half && len(cur) > 0 {
			blocks = append(blocks, cur)
			cur = nil
			used = 0
		}
		cur = append(cur, i)
		used += l
	}
	if len(cur) > 0 {
		blocks = append(blocks, cur)
	}
	return blocks, nil
}

// RunTiled simulates the out-of-core all-vs-all task on `slaves` slave
// cores under the given memory budget. Results replay from pr exactly
// as in Run; only the master's load schedule (and therefore timing)
// changes. Thread grouping does not apply to the tiled path. Block
// (re)loading replaces the one-time load, so Report.LoadSeconds stays 0
// and ReloadSeconds carries the loading cost instead.
func RunTiled(pr *PairResults, slaves int, cfg TiledConfig) (TiledRunResult, error) {
	maxSlaves := cfg.Chip.NumCores() - 1
	if slaves < 1 || slaves > maxSlaves {
		return TiledRunResult{}, fmt.Errorf("core: slave count %d outside [1,%d]", slaves, maxSlaves)
	}
	if cfg.Faults != nil {
		return TiledRunResult{}, fmt.Errorf("core: tiled run: %w", farm.ErrFaultsUnsupported)
	}
	lengths := pr.lengths()
	total := 0
	for _, l := range lengths {
		total += l
	}
	if cfg.MemoryBudgetResidues <= 0 || cfg.MemoryBudgetResidues >= total {
		// Everything fits: identical to the flat run.
		r, err := Run(pr, slaves, cfg.Config)
		return TiledRunResult{RunResult: r, Blocks: 1, BlockLoads: 1}, err
	}
	blocks, err := blockPartition(lengths, cfg.MemoryBudgetResidues)
	if err != nil {
		return TiledRunResult{}, err
	}

	fcfg := cfg.Config.session(slaves)
	fcfg.ThreadsPerWorker = 0
	fcfg.ThreadEfficiency = 0
	s, err := farm.NewSession(fcfg)
	if err != nil {
		return TiledRunResult{}, err
	}
	s.StartSlaves(func(job rckskel.Job) (any, costmodel.Counter, int) {
		p := job.Payload.(sched.Pair)
		res := pr.Get(p)
		return res, res.Ops, ResultBytes(res.Len2)
	})

	blockResidues := func(b []int) int {
		n := 0
		for _, i := range b {
			n += lengths[i]
		}
		return n
	}
	jobsFor := func(pairs []sched.Pair) []rckskel.Job {
		jobs, err := farm.BuildJobs(pairs, 0, pairBytes(lengths))
		if err != nil {
			// StructBytes is strictly positive, so sizing cannot fail.
			panic(err)
		}
		return jobs
	}

	out := TiledRunResult{Blocks: len(blocks)}
	rep, err := s.Run("", func(m *farm.Master) {
		loadBlock := func(b []int) {
			d := float64(blockResidues(b)) * cfg.ReloadSecondsPerResidue
			m.P.Wait(d)
			m.Chip().Compute(m.P, costmodel.Counter{ResiduesLoaded: uint64(blockResidues(b))})
			out.BlockLoads++
			out.ReloadSeconds += d
		}
		farmPairs := func(pairs []sched.Pair) {
			if len(pairs) == 0 {
				return
			}
			m.Farm(rckskel.Shared(jobsFor(pairs)), nil)
		}

		// Diagonal tiles: within-block pairs.
		for bi, b := range blocks {
			loadBlock(b)
			var pairs []sched.Pair
			for x := 0; x < len(b); x++ {
				for y := x + 1; y < len(b); y++ {
					pairs = append(pairs, sched.Pair{I: b[x], J: b[y]})
				}
			}
			farmPairs(pairs)
			// Off-diagonal tiles: this block against every later block.
			for bj := bi + 1; bj < len(blocks); bj++ {
				loadBlock(blocks[bj])
				var cross []sched.Pair
				for _, i := range b {
					for _, j := range blocks[bj] {
						cross = append(cross, sched.Pair{I: i, J: j})
					}
				}
				farmPairs(cross)
			}
		}
		m.Terminate()
	})
	// The per-tile farms run back to back; the end-to-end wall clock is
	// the meaningful makespan for the tiled schedule.
	rep.FarmStats.MakespanSeconds = rep.TotalSeconds
	rep.Prune = cfg.Prune
	out.RunResult = RunResult{Report: rep}
	return out, err
}

// RunTiledSweep simulates the tiled run for each slave count and
// returns the results in order.
func RunTiledSweep(pr *PairResults, slaveCounts []int, cfg TiledConfig) ([]TiledRunResult, error) {
	return farm.Sweep(slaveCounts, func(n int) (TiledRunResult, error) {
		return RunTiled(pr, n, cfg)
	})
}
