package rckskel

import (
	"reflect"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/rcce"
	"rckalign/internal/scc"
	"rckalign/internal/sim"
)

// setupFT is setup for a fault-tolerant team tuned by cfg.
func setupFT(slaves int, h Handler, cfg FTConfig) (*sim.Engine, *Team) {
	e := sim.NewEngine()
	chip := scc.New(e, scc.DefaultConfig())
	comm := rcce.New(chip)
	ids := make([]int, slaves)
	for i := range ids {
		ids[i] = i + 1
	}
	t := NewTeam(comm, 0, ids)
	t.FT = &cfg
	t.StartSlaves(h)
	return e, t
}

// farmFT runs jobs through the fault-tolerant team's shared queue.
func farmFT(t *Team, p *sim.Process, jobs []Job, collect func(Result)) FTStats {
	_, ft, err := t.Farm(p, Shared(jobs), collect)
	if err != nil {
		panic(err)
	}
	return ft
}

// jobSeconds returns the simulated compute time of one doubler(cost) job.
func jobSeconds(cost uint64) float64 {
	return scc.DefaultConfig().CPU.Seconds(costmodel.Counter{DPCells: cost})
}

// deadCoreWire drops messages to fail-stopped cores, the minimal wire
// model the fault-tolerant farm's detection relies on (fault.Injector provides it in
// production).
type deadCoreWire struct {
	dead map[int]bool
}

func (w *deadCoreWire) Deliver(p *sim.Process, m *rcce.Message) rcce.Outcome {
	return rcce.Outcome{Drop: w.dead[m.Dst]}
}

func (w *deadCoreWire) kill(e *sim.Engine, chip *scc.Chip, core int, at float64) {
	e.Schedule(at, func() {
		w.dead[core] = true
		e.Kill(chip.Proc(core))
	})
}

func TestFARMFTFaultFreeMatchesFARM(t *testing.T) {
	const cost, nJobs, nSlaves = 50000, 40, 5
	run := func(ft bool) (Stats, []int) {
		e := sim.NewEngine()
		chip := scc.New(e, scc.DefaultConfig())
		comm := rcce.New(chip)
		ids := make([]int, nSlaves)
		for i := range ids {
			ids[i] = i + 1
		}
		team := NewTeam(comm, 0, ids)
		if ft {
			team.FT = &FTConfig{JobDeadlineSeconds: 1e6}
		}
		team.StartSlaves(doubler(cost))
		var st Stats
		var order []int
		err := runMaster(e, team, func(p *sim.Process) {
			st = farmAll(team, p, intJobs(nJobs), func(r Result) { order = append(order, r.JobID) })
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, order
	}
	classicSt, classicOrder := run(false)
	ftSt, ftOrder := run(true)
	if !reflect.DeepEqual(classicSt, ftSt) {
		t.Errorf("stats diverge:\nclassic %+v\nft      %+v", classicSt, ftSt)
	}
	if !reflect.DeepEqual(classicOrder, ftOrder) {
		t.Errorf("collection order diverges:\nclassic %v\nft      %v", classicOrder, ftOrder)
	}
}

func TestFARMFTRecoversFromKill(t *testing.T) {
	const cost, nJobs = 200000, 30
	js := jobSeconds(cost)
	e, team := setupFT(4, doubler(cost), FTConfig{JobDeadlineSeconds: 3 * js})
	chip := team.Comm.Chip()
	wire := &deadCoreWire{dead: map[int]bool{}}
	team.Comm.SetInterposer(wire)
	wire.kill(e, chip, 2, 1.5*js) // mid-run, likely mid-compute

	got := map[int]int{}
	var ft FTStats
	err := runMaster(e, team, func(p *sim.Process) {
		ft = farmFT(team, p, intJobs(nJobs), func(r Result) {
			if _, dup := got[r.JobID]; dup {
				t.Errorf("job %d collected twice", r.JobID)
			}
			got[r.JobID] = r.Payload.(int)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nJobs {
		t.Fatalf("collected %d of %d jobs", len(got), nJobs)
	}
	for id, v := range got {
		if v != 2*id {
			t.Errorf("job %d = %d, want %d", id, v, 2*id)
		}
	}
	if ft.Timeouts == 0 || ft.Retries == 0 {
		t.Errorf("kill left no trace in FT stats: %+v", ft)
	}
	if ft.LostJobs != 0 {
		t.Errorf("lost %d jobs despite healthy slaves: %+v", ft.LostJobs, ft)
	}
}

// corruptOnceWire corrupts the first message on one src->dst pair.
type corruptOnceWire struct {
	src, dst int
	used     bool
}

func (w *corruptOnceWire) Deliver(p *sim.Process, m *rcce.Message) rcce.Outcome {
	if !w.used && m.Src == w.src && m.Dst == w.dst {
		w.used = true
		return rcce.Outcome{Corrupt: true}
	}
	return rcce.Outcome{}
}

func TestFARMFTRetriesCorruptResult(t *testing.T) {
	const cost, nJobs = 50000, 12
	e, team := setupFT(3, doubler(cost), FTConfig{})
	team.Comm.SetInterposer(&corruptOnceWire{src: 2, dst: 0})
	got := map[int]int{}
	var ft FTStats
	err := runMaster(e, team, func(p *sim.Process) {
		ft = farmFT(team, p, intJobs(nJobs), func(r Result) {
			got[r.JobID] = r.Payload.(int)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nJobs {
		t.Fatalf("collected %d of %d jobs", len(got), nJobs)
	}
	if ft.CorruptDetected != 1 || ft.Retries != 1 {
		t.Errorf("ft stats = %+v, want 1 corrupt / 1 retry", ft)
	}
}

func TestFARMFTResendsCorruptJob(t *testing.T) {
	const cost, nJobs = 50000, 12
	js := jobSeconds(cost)
	e, team := setupFT(3, doubler(cost), FTConfig{JobDeadlineSeconds: 2 * js})
	team.Comm.SetInterposer(&corruptOnceWire{src: 0, dst: 2})
	got := map[int]int{}
	var ft FTStats
	err := runMaster(e, team, func(p *sim.Process) {
		ft = farmFT(team, p, intJobs(nJobs), func(r Result) {
			got[r.JobID] = r.Payload.(int)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nJobs {
		t.Fatalf("collected %d of %d jobs", len(got), nJobs)
	}
	// The corrupted job request was discarded by the slave and re-sent
	// after the deadline.
	if ft.Timeouts == 0 || ft.Retries == 0 {
		t.Errorf("ft stats = %+v, want a timeout-driven retry", ft)
	}
}

func TestFARMFTBlacklistsRepeatOffender(t *testing.T) {
	const cost, nJobs = 200000, 20
	js := jobSeconds(cost)
	e, team := setupFT(4, doubler(cost), FTConfig{JobDeadlineSeconds: 2 * js, MaxFailures: 1})
	chip := team.Comm.Chip()
	wire := &deadCoreWire{dead: map[int]bool{}}
	team.Comm.SetInterposer(wire)
	wire.kill(e, chip, 3, 0.5*js)

	var ft FTStats
	got := map[int]bool{}
	err := runMaster(e, team, func(p *sim.Process) {
		ft = farmFT(team, p, intJobs(nJobs), func(r Result) { got[r.JobID] = true })
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nJobs {
		t.Fatalf("collected %d of %d jobs", len(got), nJobs)
	}
	if !reflect.DeepEqual(ft.Blacklisted, []int{3}) {
		t.Errorf("blacklisted = %v, want [3]", ft.Blacklisted)
	}
}

func TestFARMFTDegradedWhenAllSlavesDie(t *testing.T) {
	const cost, nJobs = 200000, 20
	js := jobSeconds(cost)
	e, team := setupFT(3, doubler(cost), FTConfig{JobDeadlineSeconds: 2 * js})
	chip := team.Comm.Chip()
	wire := &deadCoreWire{dead: map[int]bool{}}
	team.Comm.SetInterposer(wire)
	for _, core := range team.Slaves {
		wire.kill(e, chip, core, 0.5*js)
	}
	collected := 0
	var ft FTStats
	err := runMaster(e, team, func(p *sim.Process) {
		ft = farmFT(team, p, intJobs(nJobs), func(Result) { collected++ })
	})
	if err != nil {
		t.Fatal(err)
	}
	if collected+ft.LostJobs != nJobs {
		t.Errorf("collected %d + lost %d != %d jobs", collected, ft.LostJobs, nJobs)
	}
	if ft.LostJobs == 0 {
		t.Error("killing every slave lost no jobs")
	}
}

func TestFARMFTDropsDuplicateFromStalledSlave(t *testing.T) {
	// Slave 1 stalls past its deadline, so job 0 is reassigned to an
	// idle slave; the stall ends while that copy is still computing, so
	// the original slave rings first (its late result is accepted) and
	// the retry's result arrives as a duplicate. Job 4 runs 3x longer
	// than the rest to keep the farm collecting until the duplicate
	// lands.
	const cost, nJobs = 200000, 5
	js := jobSeconds(cost)
	vary := func(job Job) (any, costmodel.Counter, int) {
		c := uint64(cost)
		if job.ID == 4 {
			c *= 3
		}
		return 2 * job.Payload.(int), costmodel.Counter{DPCells: c}, 8
	}
	e, team := setupFT(4, vary, FTConfig{JobDeadlineSeconds: 2 * js})
	chip := team.Comm.Chip()
	e.Schedule(0.5*js, func() { e.StallUntil(chip.Proc(1), 2.5*js) })
	got := map[int]int{}
	var ft FTStats
	err := runMaster(e, team, func(p *sim.Process) {
		ft = farmFT(team, p, intJobs(nJobs), func(r Result) {
			if _, dup := got[r.JobID]; dup {
				t.Errorf("job %d collected twice", r.JobID)
			}
			got[r.JobID] = r.Payload.(int)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != nJobs {
		t.Fatalf("collected %d of %d jobs", len(got), nJobs)
	}
	if ft.DuplicatesDropped == 0 {
		t.Errorf("reassigned copy's result not dropped as duplicate: %+v", ft)
	}
	if ft.Reassigned == 0 {
		t.Errorf("stall did not reassign work: %+v", ft)
	}
}
