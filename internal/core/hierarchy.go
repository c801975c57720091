package core

import (
	"fmt"

	"rckalign/internal/costmodel"
	"rckalign/internal/farm"
	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
	"rckalign/internal/sim"
)

// runHierarchical implements the paper's proposed extension for master
// scalability: a root master on cfg.MasterCore forwards job partitions
// to cfg.Hierarchy sub-masters, each of which FARMs its share to its own
// slave partition. The root then gathers per-partition aggregates. This
// removes the single master from every job's critical path at the cost
// of dedicating sub-master cores.
func runHierarchical(pr *PairResults, slaves int, cfg Config) (RunResult, error) {
	h := cfg.Hierarchy
	if h < 1 {
		h = 1
	}
	if h > slaves {
		h = slaves
	}
	need := 1 + h + slaves
	if need > cfg.Chip.NumCores() {
		return RunResult{}, fmt.Errorf("core: hierarchy needs %d cores, chip has %d", need, cfg.Chip.NumCores())
	}

	// The session places h+slaves cores in id order (root skipped): the
	// first h become sub-masters, the rest are dealt round-robin into the
	// h slave partitions. Thread grouping does not apply to the
	// hierarchical tree.
	fcfg := cfg.session(h + slaves)
	fcfg.ThreadsPerWorker = 0
	fcfg.ThreadEfficiency = 0
	s, err := farm.NewSession(fcfg)
	if err != nil {
		return RunResult{}, err
	}
	cores := s.Placement().Cores
	subMasters := cores[:h]
	slavesOf := farm.PartitionRoundRobin(cores[h:], h)

	ds := pr.Dataset
	lengths := pr.lengths()
	allJobs, err := cfg.buildJobs(pr, lengths, 0)
	if err != nil {
		return RunResult{}, err
	}

	// Round-robin partition of the job list over sub-masters.
	jobsOf := make([][]rckskel.Job, h)
	for k, j := range allJobs {
		jobsOf[k%h] = append(jobsOf[k%h], j)
	}

	handler := func(job rckskel.Job) (any, costmodel.Counter, int) {
		p := job.Payload.(sched.Pair)
		res := pr.Get(p)
		return res, res.Ops, ResultBytes(res.Len2)
	}

	type partitionDone struct {
		stats rckskel.Stats
	}

	teams := make([]*rckskel.Team, h)
	for i := 0; i < h; i++ {
		teams[i] = s.NewTeam(subMasters[i], slavesOf[i])
		teams[i].StartSlaves(handler)
	}

	rt := s.Runtime()
	root := cfg.MasterCore
	// Sub-master processes: receive their job batch from the root, farm
	// it, report completion.
	for i := 0; i < h; i++ {
		i := i
		rt.Chip.SpawnCore(subMasters[i], func(p *sim.Process) {
			m := rt.Comm.Recv(p, root, subMasters[i])
			jobs := m.Payload.([]rckskel.Job)
			// Faults were rejected up front, so these teams carry no FT
			// and the single-queue farm cannot fail.
			stats, _, _ := teams[i].Farm(p, rckskel.Shared(jobs), func(r rckskel.Result) { s.Collect(r) })
			teams[i].Terminate(p)
			rt.Comm.Send(p, subMasters[i], root, 64, partitionDone{stats: stats})
		})
	}

	rep, err := s.Run("", func(m *farm.Master) {
		m.LoadResidues(ds.TotalResidues())
		// Forward each partition's structures+jobs descriptor. The data
		// volume is the same structure bytes the flat master would send,
		// but it moves once per partition, off the per-job critical path.
		for i := 0; i < h; i++ {
			bytes := 0
			for _, j := range jobsOf[i] {
				bytes += j.Bytes
			}
			m.Comm().Send(m.P, root, subMasters[i], bytes, jobsOf[i])
		}
		for i := 0; i < h; i++ {
			msg := m.Comm().Recv(m.P, subMasters[i], root)
			done := msg.Payload.(partitionDone)
			// The sub-masters' farms overlap in time, so their makespans
			// do not sum; the root's wall clock below is authoritative.
			st := done.stats
			st.MakespanSeconds = 0
			m.MergeStats(st)
		}
	})
	rep.FarmStats.MakespanSeconds = rep.TotalSeconds - rep.LoadSeconds
	rep.Prune = cfg.Prune
	return RunResult{Report: rep}, err
}
