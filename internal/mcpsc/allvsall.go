package mcpsc

import (
	"fmt"

	"rckalign/internal/core"
	"rckalign/internal/costmodel"
	"rckalign/internal/farm"
	"rckalign/internal/pdb"
	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
	"rckalign/internal/synth"
)

// The paper's concluding future work: "extending the framework to
// support all-to-all multi-criteria PSC and studying the performance
// characteristics of such a system... would require assessment of
// optimal strategies for the partitioning of the cores dedicated to
// different PSC algorithms, since the algorithm complexities may vary."
// RunAllVsAll implements that system, and EqualPartition /
// ProportionalPartition are two core-partitioning strategies whose
// performance the ablation compares.

// AllVsAllResult reports a simulated multi-criteria all-vs-all run.
type AllVsAllResult struct {
	farm.Report
	// Similarity[m][i][j] is method m's score for structure pair (i,j)
	// (symmetric, diagonal 1).
	Similarity map[string][][]float64
	// SlavesPerMethod records the partition used.
	SlavesPerMethod map[string]int
}

// EqualPartition assigns slaves round-robin to methods.
func EqualPartition(methods int, slaves int) []int {
	out := make([]int, methods)
	for i := 0; i < slaves; i++ {
		out[i%methods]++
	}
	return out
}

// ProportionalPartition estimates each method's per-pair cost on a
// probe pair from the dataset and allocates slaves proportionally
// (each method gets at least one). This is the "assess the algorithm
// complexities" strategy the paper anticipates.
func ProportionalPartition(ds *synth.Dataset, methods []Method, slaves int, cpu costmodel.CPU) []int {
	costs := make([]float64, len(methods))
	a, b := ds.Structures[0], ds.Structures[ds.Len()/2]
	for i, m := range methods {
		s := m.Compare(a, b)
		costs[i] = cpu.Seconds(s.Ops)
		if costs[i] <= 0 {
			costs[i] = 1e-9
		}
	}
	out := make([]int, len(methods))
	assigned := 0
	for i := range methods {
		out[i] = 1
		assigned++
	}
	for assigned < slaves {
		// Give the next slave to the method with the highest remaining
		// cost per assigned slave.
		best, bestLoad := 0, -1.0
		for i := range methods {
			load := costs[i] / float64(out[i])
			if load > bestLoad {
				best, bestLoad = i, load
			}
		}
		out[best]++
		assigned++
	}
	return out
}

// RunAllVsAll simulates multi-criteria all-vs-all PSC: every method
// scores every distinct pair, with the slave cores split among methods
// according to partition (len(methods) entries summing to the slave
// count; each >= 1). Comparisons run natively and charge their measured
// ops to the simulated cores.
func RunAllVsAll(ds *synth.Dataset, methods []Method, partition []int, cfg RunConfig) (AllVsAllResult, error) {
	if len(methods) == 0 {
		return AllVsAllResult{}, fmt.Errorf("mcpsc: no methods")
	}
	if len(partition) != len(methods) {
		return AllVsAllResult{}, fmt.Errorf("mcpsc: partition has %d entries for %d methods", len(partition), len(methods))
	}
	slaves := 0
	for i, n := range partition {
		if n < 1 {
			return AllVsAllResult{}, fmt.Errorf("mcpsc: method %d got %d slaves", i, n)
		}
		slaves += n
	}
	if slaves > cfg.Chip.NumCores()-1 {
		return AllVsAllResult{}, fmt.Errorf("mcpsc: %d slaves exceed chip capacity", slaves)
	}

	s, err := farm.NewSession(cfg.session(slaves))
	if err != nil {
		return AllVsAllResult{}, err
	}
	slaveIDs := s.Placement().Cores

	// Contiguous partition assignment: each method gets a dedicated core
	// range.
	methodOf := map[int]int{}
	out := AllVsAllResult{
		Similarity:      map[string][][]float64{},
		SlavesPerMethod: map[string]int{},
	}
	groups, err := farm.PartitionContiguous(slaveIDs, partition)
	if err != nil {
		return AllVsAllResult{}, err
	}
	for m, group := range groups {
		out.SlavesPerMethod[methods[m].Name()] = len(group)
		for _, c := range group {
			methodOf[c] = m
		}
	}

	pairs := sched.AllVsAll(ds.Len())
	for _, m := range methods {
		mat := make([][]float64, ds.Len())
		for i := range mat {
			mat[i] = make([]float64, ds.Len())
			mat[i][i] = 1
		}
		out.Similarity[m.Name()] = mat
	}

	queues := make([][]rckskel.Job, len(methods))
	for m := range methods {
		queues[m], err = farm.BuildJobs(pairs, m*len(pairs), func(p sched.Pair) int {
			return core.StructBytes(ds.Structures[p.I].Len()) + core.StructBytes(ds.Structures[p.J].Len())
		})
		if err != nil {
			return AllVsAllResult{}, err
		}
	}
	cpu := cfg.Chip.CPU
	rb := cfg.resultBytes()
	prefetchQueues(cfg.Store, ds, methods, queues, func(pl any) (*pdb.Structure, *pdb.Structure) {
		p := pl.(sched.Pair)
		return ds.Structures[p.I], ds.Structures[p.J]
	})

	s.StartSlavesWith(func(slave int) rckskel.Handler {
		m := methods[methodOf[slave]]
		return func(job rckskel.Job) (any, costmodel.Counter, int) {
			p := job.Payload.(sched.Pair)
			sc := memoizedScore(cfg.Store, m, ds.Name, ds.Structures[p.I], ds.Structures[p.J])
			return sc, sc.Ops, rb(sc)
		}
	})

	rep, err := s.Run("", func(m *farm.Master) {
		m.LoadResidues(ds.TotalResidues())
		m.Farm(methodQueues(queues, methodOf), func(r rckskel.Result) {
			sc := r.Payload.(Score)
			pair := pairs[r.JobID%len(pairs)]
			mat := out.Similarity[sc.Method]
			mat[pair.I][pair.J] = sc.Value
			mat[pair.J][pair.I] = sc.Value
			m.AddMethodBusy(sc.Method, cpu.Seconds(sc.Ops))
		})
		m.Terminate()
	})
	out.Report = rep
	return out, err
}

// ConsensusMatrix fuses the per-method matrices of an all-vs-all run
// into one consensus similarity matrix (z-score averaged per pair
// vector across methods, rescaled to rank order only — use for
// clustering/retrieval, not as a calibrated score).
func (r AllVsAllResult) ConsensusMatrix() [][]float64 {
	var names []string
	for name := range r.Similarity {
		names = append(names, name)
	}
	if len(names) == 0 {
		return nil
	}
	n := len(r.Similarity[names[0]])
	// Flatten upper triangles per method, z-score, average, refill.
	var vectors [][]float64
	var order [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			order = append(order, [2]int{i, j})
		}
	}
	for _, name := range names {
		v := make([]float64, len(order))
		for k, ij := range order {
			v[k] = r.Similarity[name][ij[0]][ij[1]]
		}
		vectors = append(vectors, v)
	}
	cons := Consensus(vectors)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
	}
	for k, ij := range order {
		out[ij[0]][ij[1]] = cons[k]
		out[ij[1]][ij[0]] = cons[k]
	}
	return out
}
