// Multi-chip rckAlign: shard the all-vs-all pair matrix across N SCC
// chips and farm each shard on its own chip, coordinated by the root
// master over the board-level interconnect (see internal/farm's
// MultiSession and internal/interchip). The single-chip configuration
// is not a special case of the machinery — it IS the flat path: a
// 1-chip run delegates to Run, so its reports and scores are
// bit-identical to the paper's single-master farm by construction.
package core

import (
	"fmt"

	"rckalign/internal/farm"
	"rckalign/internal/interchip"
	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
)

// ShardJobHeaderBytes is the per-job descriptor size inside a shard
// message (job id, structure ids, lengths).
const ShardJobHeaderBytes = 16

// MultiChipConfig extends Config with the multi-chip axes. The embedded
// Config's Chip describes each chip; MasterCore is ignored at chips > 1
// (every chip's master is its core 0, the root is chip 0's).
type MultiChipConfig struct {
	Config
	// Chips is the chip count (<= 1 runs the flat single-chip path).
	Chips int
	// Interchip is the board-level interconnect cost profile (zero value
	// = interchip.DefaultConfig, the board profile).
	Interchip interchip.Config
	// Gather selects the result-aggregation topology across chips (zero
	// value = a gather tree of farm.DefaultGatherArity).
	Gather farm.GatherConfig
	// ShardTile is the block granularity, in structures, for sharding
	// the pair grid across chips: whole Tile x Tile blocks move
	// together so each structure lands on few chips. 0 derives it from
	// the run's blocked-ordering tile (or sched.DefaultTile when
	// blocking is off).
	ShardTile int
}

// shardTileSize resolves MultiChipConfig.ShardTile against the run's
// ordering tile.
func (cfg MultiChipConfig) shardTileSize(orderTile int) int {
	switch {
	case cfg.ShardTile > 0:
		return cfg.ShardTile
	case orderTile > 1:
		return orderTile
	}
	return sched.DefaultTile
}

// shardWireBytes models handing one shard to a remote chip over the
// interchip fabric: the shard framing, one descriptor per job, and each
// distinct structure's coordinates exactly once — the board-tier
// analogue of the on-chip structure-cache model (a chip never receives
// the same coordinates twice in one scatter).
func shardWireBytes(shard []sched.Pair, lengths []int) int64 {
	bytes := int64(farm.ShardHeaderBytes) + int64(len(shard))*ShardJobHeaderBytes
	seen := map[int]bool{}
	for _, p := range shard {
		for _, i := range []int{p.I, p.J} {
			if !seen[i] {
				seen[i] = true
				bytes += int64(StructBytes(lengths[i]))
			}
		}
	}
	return bytes
}

// RunMultiChip simulates rckAlign on cfg.Chips SCC chips with
// slavesPerChip slave cores each. With Chips <= 1 it delegates to the
// flat Run (including fault plans and every flat-only feature), so a
// 1-chip multi-chip run is the flat run. At Chips > 1 the pair list is
// ordered exactly as the flat path would order it, sharded into whole
// tile blocks across chips (heaviest block first onto the least loaded
// chip), and farmed hierarchically: root master on chip 0 scatters the
// shards over the interchip fabric, each chip's sub-master farms its
// shard on its own mesh, and results return as aggregate blobs up the
// configured gather topology. Each chip session is readied exactly as
// the flat run's (startShard): fault plans (core ids global across the
// board) run the fault-tolerant farm per chip, and affinity farming
// deals each shard onto that chip's workers. Only the on-chip master
// hierarchy stays a single-chip feature (the chips are the hierarchy).
func RunMultiChip(pr *PairResults, slavesPerChip int, cfg MultiChipConfig) (RunResult, error) {
	if cfg.Chips <= 1 {
		return Run(pr, slavesPerChip, cfg.Config)
	}
	if cfg.Hierarchy > 0 {
		return RunResult{}, fmt.Errorf("core: multi-chip run does not support the on-chip master hierarchy (chips are the hierarchy)")
	}

	w, ordered, err := cfg.wirePlan(pr)
	if err != nil {
		return RunResult{}, err
	}
	shards, err := sched.ShardPairs(ordered, cfg.Chips, cfg.shardTileSize(w.tile), sched.LengthProductCost(w.lengths))
	if err != nil {
		return RunResult{}, err
	}

	ms, err := farm.NewMultiSession(farm.MultiConfig{
		Backend:          farm.MultiChip{Chips: cfg.Chips, Chip: cfg.Chip, Interchip: cfg.Interchip},
		SlavesPerChip:    slavesPerChip,
		ThreadsPerWorker: cfg.ThreadsPerWorker,
		ThreadEfficiency: cfg.ThreadEfficiency,
		PollingScale:     cfg.PollingScale,
		Trace:            cfg.Trace,
		Metrics:          cfg.Metrics,
		Collector:        cfg.Collector,
		Batch:            cfg.Batch,
		CacheStructs:     w.cacheCap,
		Gather:           cfg.Gather,
		Faults:           cfg.Faults,
		FT:               cfg.FT,
	})
	if err != nil {
		return RunResult{}, err
	}
	// Job IDs stay globally unique across chips (and queues).
	srcs := make([]rckskel.Source, cfg.Chips)
	shardBytes := make([]int64, cfg.Chips)
	idBase := 0
	for c, shard := range shards {
		if srcs[c], err = cfg.startShard(ms.ChipSession(c), pr, shard, idBase, w); err != nil {
			return RunResult{}, err
		}
		idBase += len(shard)
		if len(shard) > 0 {
			shardBytes[c] = shardWireBytes(shard, w.lengths)
		}
	}

	rep, err := ms.Run(pr.Dataset.TotalResidues(), srcs, shardBytes)
	rep.Prune = cfg.Prune
	return RunResult{Report: rep}, err
}

// RunChipSweep simulates RunMultiChip at each chip count and returns
// the results in order (the scaling-curve axis of ChipScalingSweep).
func RunChipSweep(pr *PairResults, slavesPerChip int, chipCounts []int, cfg MultiChipConfig) ([]RunResult, error) {
	return farm.Sweep(chipCounts, func(n int) (RunResult, error) {
		c := cfg
		c.Chips = n
		return RunMultiChip(pr, slavesPerChip, c)
	})
}
