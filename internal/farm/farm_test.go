package farm

import (
	"errors"
	"reflect"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
	"rckalign/internal/sched"
)

func sccBackend() Backend { return SCCSim{Chip: scc.DefaultConfig()} }

func TestPlaceSkipsMaster(t *testing.T) {
	p, err := Place(Config{Backend: sccBackend(), MasterCore: 2, Slaves: 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 3, 4}
	if !reflect.DeepEqual(p.Cores, want) {
		t.Errorf("Cores = %v, want %v", p.Cores, want)
	}
	if !reflect.DeepEqual(p.WorkerLeads, want) {
		t.Errorf("WorkerLeads = %v, want %v", p.WorkerLeads, want)
	}
	if p.Threads != 1 || p.OpScale != 1 || p.EffectiveCores != 4 || p.DroppedCores != 0 {
		t.Errorf("unexpected placement %+v", p)
	}
}

func TestPlaceHostMaster(t *testing.T) {
	p, err := Place(Config{Backend: sccBackend(), MasterCore: HostMaster, Slaves: 48})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Cores) != 48 || p.Cores[0] != 0 || p.Cores[47] != 47 {
		t.Errorf("host-master placement should use every core: %v", p.Cores)
	}
	// On-chip master caps slaves at NumCores-1.
	if _, err := Place(Config{Backend: sccBackend(), MasterCore: 0, Slaves: 48}); err == nil {
		t.Error("expected error for 48 slaves with an on-chip master")
	}
}

func TestPlaceThreadGrouping(t *testing.T) {
	p, err := Place(Config{Backend: sccBackend(), MasterCore: 0, Slaves: 7, ThreadsPerWorker: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p.WorkerLeads, []int{1, 3, 5}) {
		t.Errorf("WorkerLeads = %v, want [1 3 5]", p.WorkerLeads)
	}
	if p.EffectiveCores != 6 || p.DroppedCores != 1 {
		t.Errorf("effective/dropped = %d/%d, want 6/1", p.EffectiveCores, p.DroppedCores)
	}
	want := 1.0 / (2 * 0.9)
	if p.OpScale != want {
		t.Errorf("OpScale = %v, want %v", p.OpScale, want)
	}
	// A single core cannot form a 2-thread worker.
	if _, err := Place(Config{Backend: sccBackend(), MasterCore: 0, Slaves: 1, ThreadsPerWorker: 2}); err == nil {
		t.Error("expected error for 1 slave with 2-thread workers")
	}
}

func TestPlaceValidation(t *testing.T) {
	if _, err := Place(Config{Backend: sccBackend(), MasterCore: 48, Slaves: 1}); err == nil {
		t.Error("expected error for out-of-range master core")
	}
	if _, err := Place(Config{Backend: sccBackend(), MasterCore: 0, Slaves: 0}); err == nil {
		t.Error("expected error for zero slaves")
	}
	if _, err := Place(Config{Slaves: 1}); err == nil {
		t.Error("expected error for nil backend")
	}
}

func TestPartitionContiguous(t *testing.T) {
	cores := []int{1, 2, 3, 4, 5, 6}
	got, err := PartitionContiguous(cores, []int{2, 1, 3})
	if err != nil {
		t.Fatalf("PartitionContiguous: %v", err)
	}
	want := [][]int{{1, 2}, {3}, {4, 5, 6}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PartitionContiguous = %v, want %v", got, want)
	}
	// Undersized, oversized (would previously slice out of bounds
	// before the diagnostic) and negative partitions are all rejected
	// up front with the typed error.
	for _, sizes := range [][]int{{2, 1}, {2, 1, 9}, {7, -1}} {
		if _, err := PartitionContiguous(cores, sizes); !errors.Is(err, ErrPartitionSizes) {
			t.Errorf("PartitionContiguous(%v) err = %v, want ErrPartitionSizes", sizes, err)
		}
	}
}

func TestPartitionRoundRobin(t *testing.T) {
	got := PartitionRoundRobin([]int{1, 2, 3, 4, 5}, 2)
	want := [][]int{{1, 3, 5}, {2, 4}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("PartitionRoundRobin = %v, want %v", got, want)
	}
}

func TestBuildJobs(t *testing.T) {
	pairs := []sched.Pair{{I: 0, J: 1}, {I: 0, J: 2}}
	jobs, err := BuildJobs(pairs, 10, func(p sched.Pair) int { return p.I + p.J })
	if err != nil {
		t.Fatalf("BuildJobs: %v", err)
	}
	if len(jobs) != 2 {
		t.Fatalf("got %d jobs", len(jobs))
	}
	if jobs[0].ID != 10 || jobs[1].ID != 11 {
		t.Errorf("IDs = %d,%d, want 10,11", jobs[0].ID, jobs[1].ID)
	}
	if jobs[1].Bytes != 2 || jobs[1].Payload.(sched.Pair) != pairs[1] {
		t.Errorf("job 1 = %+v", jobs[1])
	}
}

func TestSweepStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	var seen []int
	out, err := Sweep([]int{1, 2, 3}, func(n int) (int, error) {
		seen = append(seen, n)
		if n == 2 {
			return 0, boom
		}
		return n * n, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if !reflect.DeepEqual(seen, []int{1, 2}) {
		t.Errorf("ran %v, want [1 2]", seen)
	}
	if !reflect.DeepEqual(out, []int{1}) {
		t.Errorf("out = %v, want [1]", out)
	}
}

// TestSessionRunsAFarm exercises the full harness on a synthetic
// constant-cost workload: report bookkeeping, collector plumbing and
// per-core utilization must all be populated.
func TestSessionRunsAFarm(t *testing.T) {
	var collected []int
	s, err := NewSession(Config{
		Backend:      sccBackend(),
		MasterCore:   0,
		Slaves:       3,
		PollingScale: 1,
		Collector:    CollectorFunc(func(r rckskel.Result) { collected = append(collected, r.JobID) }),
	})
	if err != nil {
		t.Fatal(err)
	}
	jobs := make([]rckskel.Job, 12)
	for k := range jobs {
		jobs[k] = rckskel.Job{ID: k, Payload: k, Bytes: 512}
	}
	s.StartSlaves(func(job rckskel.Job) (any, costmodel.Counter, int) {
		return job.Payload, costmodel.Counter{ScoreEvals: 1e6}, 64
	})
	rep, err := s.Run("", func(m *Master) {
		m.LoadResidues(1000)
		m.Farm(rckskel.Shared(jobs), nil)
		m.Terminate()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collected != len(jobs) || len(collected) != len(jobs) {
		t.Errorf("collected %d/%d results", rep.Collected, len(collected))
	}
	if rep.TotalSeconds <= rep.LoadSeconds || rep.LoadSeconds <= 0 {
		t.Errorf("implausible times: total %v load %v", rep.TotalSeconds, rep.LoadSeconds)
	}
	if rep.Workers != 3 || rep.EffectiveCores != 3 || rep.DroppedCores != 0 {
		t.Errorf("unexpected worker accounting: %+v", rep)
	}
	jobsTotal := 0
	for _, n := range rep.FarmStats.JobsPerSlave {
		jobsTotal += n
	}
	if jobsTotal != len(jobs) {
		t.Errorf("JobsPerSlave sums to %d, want %d", jobsTotal, len(jobs))
	}
	// The internal recorder must yield utilization for master + slaves.
	if len(rep.CoreUtilization) != 4 {
		t.Errorf("CoreUtilization has %d tracks, want 4: %v", len(rep.CoreUtilization), rep.CoreUtilization)
	}
	for track, u := range rep.CoreUtilization {
		if u <= 0 || u > 1 {
			t.Errorf("utilization[%s] = %v outside (0,1]", track, u)
		}
	}
}
