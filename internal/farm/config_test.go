package farm_test

import (
	"errors"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/rckskel"
	"rckalign/internal/scc"
)

func TestPlaceTypedErrors(t *testing.T) {
	backend := farm.SCCSim{Chip: scc.DefaultConfig()} // 48 cores
	cases := []struct {
		name string
		cfg  farm.Config
		want error
	}{
		{"no backend", farm.Config{Slaves: 4}, farm.ErrNoBackend},
		{"master below range", farm.Config{Backend: backend, MasterCore: -2, Slaves: 4}, farm.ErrMasterCore},
		{"master above range", farm.Config{Backend: backend, MasterCore: 48, Slaves: 4}, farm.ErrMasterCore},
		{"zero slaves", farm.Config{Backend: backend, Slaves: 0}, farm.ErrSlaveCount},
		{"negative slaves", farm.Config{Backend: backend, Slaves: -3}, farm.ErrSlaveCount},
		{"too many slaves", farm.Config{Backend: backend, Slaves: 48}, farm.ErrSlaveCount},
		{"too many for host master", farm.Config{Backend: backend, MasterCore: farm.HostMaster, Slaves: 49}, farm.ErrSlaveCount},
		{"incomplete worker", farm.Config{Backend: backend, Slaves: 1, ThreadsPerWorker: 2}, farm.ErrWorkerGrouping},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := farm.Place(tc.cfg); !errors.Is(err, tc.want) {
				t.Errorf("Place error = %v, want errors.Is %v", err, tc.want)
			}
			if _, err := farm.NewSession(tc.cfg); tc.cfg.Backend != nil && !errors.Is(err, tc.want) {
				// NewSession substitutes a default backend, so the
				// no-backend case is only reachable through Place.
				t.Errorf("NewSession error = %v, want errors.Is %v", err, tc.want)
			}
		})
	}
	// Host master allows exactly all cores as slaves.
	if _, err := farm.Place(farm.Config{Backend: backend, MasterCore: farm.HostMaster, Slaves: 48}); err != nil {
		t.Errorf("48 slaves under a host master rejected: %v", err)
	}
}

func TestValidateJobs(t *testing.T) {
	if err := farm.ValidateJobs(nil); !errors.Is(err, farm.ErrNoJobs) {
		t.Errorf("nil jobs: %v", err)
	}
	if err := farm.ValidateJobs([]rckskel.Job{}); !errors.Is(err, farm.ErrNoJobs) {
		t.Errorf("empty jobs: %v", err)
	}
	if err := farm.ValidateJobs([]rckskel.Job{{ID: 1, Bytes: 64}}); err != nil {
		t.Errorf("one sized job rejected: %v", err)
	}
	// Zero or negative request sizes would silently corrupt the NoC
	// transfer model; they are rejected with the rckskel typed error.
	if err := farm.ValidateJobs([]rckskel.Job{{ID: 1}}); !errors.Is(err, rckskel.ErrJobBytes) {
		t.Errorf("zero-byte job: err = %v, want ErrJobBytes", err)
	}
	if err := farm.ValidateJobs([]rckskel.Job{{ID: 1, Bytes: 64}, {ID: 2, Bytes: -3}}); !errors.Is(err, rckskel.ErrJobBytes) {
		t.Errorf("negative-byte job: err = %v, want ErrJobBytes", err)
	}
	// A SizeFor job resolves its size per slave at dispatch; its static
	// Bytes is not validated here.
	dyn := []rckskel.Job{{ID: 3, SizeFor: func(int) int { return 8 }}}
	if err := farm.ValidateJobs(dyn); err != nil {
		t.Errorf("SizeFor job rejected: %v", err)
	}
}

func TestNewSessionRejectsBadFaultPlan(t *testing.T) {
	backend := farm.SCCSim{Chip: scc.DefaultConfig()}
	for name, plan := range map[string]*fault.Plan{
		"kill master":       {Kills: []fault.CoreFailure{{Core: 0, At: 1}}},
		"kill out of range": {Kills: []fault.CoreFailure{{Core: 99, At: 1}}},
		"bad probability":   {Links: []fault.LinkFault{{Src: 1, Dst: 2, DropProb: 2}}},
	} {
		t.Run(name, func(t *testing.T) {
			cfg := farm.Config{Backend: backend, MasterCore: 0, Slaves: 4, Faults: plan}
			if _, err := farm.NewSession(cfg); !errors.Is(err, farm.ErrFaultPlan) {
				t.Errorf("NewSession error = %v, want errors.Is ErrFaultPlan", err)
			}
		})
	}
}

func TestFarmDynamicOnFaultTolerantSessionErrors(t *testing.T) {
	// A multi-queue (per-worker or per-method) farm on a fault-tolerant
	// session is the one unsupported combination: the farm returns the
	// typed error before dispatching anything, the run still terminates
	// cleanly, and Run reports the error. Without a fault plan the same
	// farm runs every job.
	twoQueues := func() rckskel.Source {
		jobs := intJobs(8)
		return rckskel.Source{
			Queues:  [][]rckskel.Job{jobs[:4], jobs[4:]},
			QueueOf: func(slave int) int { return slave % 2 },
		}
	}
	run := func(plan *fault.Plan) (farm.Report, error) {
		s, err := farm.NewSession(farm.Config{
			MasterCore: 0,
			Slaves:     4,
			Faults:     plan,
			FT:         rckskel.FTConfig{JobDeadlineSeconds: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		s.StartSlaves(countJobs)
		return s.Run("", func(m *farm.Master) {
			m.Farm(twoQueues(), nil)
			m.Terminate()
		})
	}
	rep, err := run(&fault.Plan{})
	if !errors.Is(err, rckskel.ErrFaultsMultiQueue) {
		t.Errorf("fault-tolerant multi-queue farm: err = %v, want errors.Is ErrFaultsMultiQueue", err)
	}
	if rep.Collected != 0 {
		t.Errorf("rejected farm still collected %d results", rep.Collected)
	}
	rep, err = run(nil)
	if err != nil || rep.Collected != 8 {
		t.Errorf("fault-free multi-queue farm: collected %d, err %v; want 8, nil", rep.Collected, err)
	}
}

// countJobs is a trivial handler for session-level FT tests.
func countJobs(job rckskel.Job) (any, costmodel.Counter, int) {
	return job.ID, costmodel.Counter{DPCells: 200000}, 8
}

func intJobs(n int) []rckskel.Job {
	jobs := make([]rckskel.Job, n)
	for i := range jobs {
		jobs[i] = rckskel.Job{ID: i, Payload: i, Bytes: 64}
	}
	return jobs
}

func TestSessionFaultTolerantKillRun(t *testing.T) {
	js := scc.DefaultConfig().CPU.Seconds(costmodel.Counter{DPCells: 200000})
	plan := &fault.Plan{Kills: []fault.CoreFailure{{Core: 2, At: 1.5 * js}}}
	s, err := farm.NewSession(farm.Config{
		MasterCore: 0,
		Slaves:     4,
		Faults:     plan,
		FT:         rckskel.FTConfig{JobDeadlineSeconds: 3 * js},
	})
	if err != nil {
		t.Fatal(err)
	}
	s.StartSlaves(countJobs)
	got := map[int]int{}
	rep, err := s.Run("", func(m *farm.Master) {
		m.Farm(rckskel.Shared(intJobs(24)), func(r rckskel.Result) { got[r.JobID]++ })
		m.Terminate()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 24 {
		t.Fatalf("collected %d of 24 jobs", len(got))
	}
	for id, n := range got {
		if n != 1 {
			t.Errorf("job %d collected %d times", id, n)
		}
	}
	if rep.Faults == nil {
		t.Fatal("fault-tolerant run produced no Faults block")
	}
	if rep.Faults.Injected.CoresKilled != 1 || len(rep.Faults.DeadCores) != 1 {
		t.Errorf("injection stats = %+v", rep.Faults)
	}
	if rep.Faults.Timeouts == 0 || rep.Faults.Retries == 0 {
		t.Errorf("recovery left no trace: %+v", rep.Faults)
	}
	if rep.Faults.LostJobs != 0 {
		t.Errorf("lost %d jobs with healthy slaves remaining", rep.Faults.LostJobs)
	}
	if rep.Collected != 24 {
		t.Errorf("report Collected = %d", rep.Collected)
	}
}

func TestSessionClassicRunHasNoFaultsBlock(t *testing.T) {
	s, err := farm.NewSession(farm.Config{MasterCore: 0, Slaves: 3})
	if err != nil {
		t.Fatal(err)
	}
	s.StartSlaves(countJobs)
	rep, err := s.Run("", func(m *farm.Master) {
		m.Farm(rckskel.Shared(intJobs(6)), nil)
		m.Terminate()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != nil {
		t.Errorf("classic run grew a Faults block: %+v", rep.Faults)
	}
}
