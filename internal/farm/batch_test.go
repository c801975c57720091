package farm

import (
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/rckskel"
	"rckalign/internal/sched"
)

// pairWire is the test wire model: structure i weighs 100*(i+1) bytes
// and a job references the two structures of its sched.Pair payload.
func pairWire(n int) WireModel {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 100 * (i + 1)
	}
	return WireModel{
		StructsOf: func(j rckskel.Job) []int {
			p := j.Payload.(sched.Pair)
			return []int{p.I, p.J}
		},
		Sizes: sizes,
	}
}

func pairJobs(pairs []sched.Pair, wm WireModel) []rckskel.Job {
	jobs := make([]rckskel.Job, len(pairs))
	for k, p := range pairs {
		jobs[k] = rckskel.Job{ID: k, Payload: p, Bytes: wm.Sizes[p.I] + wm.Sizes[p.J]}
	}
	return jobs
}

func TestBatchHandlerPassThrough(t *testing.T) {
	h := BatchHandler(func(job rckskel.Job) (any, costmodel.Counter, int) {
		return job.ID * 10, costmodel.Counter{DPCells: 5}, 7
	})
	payload, ops, bytes := h(rckskel.Job{ID: 3, Payload: "plain"})
	if payload != 30 || ops.DPCells != 5 || bytes != 7 {
		t.Errorf("pass-through = (%v, %+v, %d)", payload, ops, bytes)
	}
}

func TestBatchHandlerRunsSubJobs(t *testing.T) {
	h := BatchHandler(func(job rckskel.Job) (any, costmodel.Counter, int) {
		// One sub-result claims zero bytes: must be clamped to 1.
		b := job.ID
		return job.ID, costmodel.Counter{DPCells: uint64(10 * (job.ID + 1))}, b
	})
	batch := rckskel.Job{ID: 0, Payload: BatchPayload{Jobs: []rckskel.Job{
		{ID: 0}, {ID: 1}, {ID: 2},
	}}}
	payload, ops, bytes := h(batch)
	br, ok := payload.(BatchResult)
	if !ok || len(br.Results) != 3 {
		t.Fatalf("payload = %#v", payload)
	}
	for i, r := range br.Results {
		if r.JobID != i || r.Payload != i {
			t.Errorf("sub-result %d = %+v", i, r)
		}
	}
	if ops.DPCells != 10+20+30 {
		t.Errorf("ops did not sum: %+v", ops)
	}
	// Result frame: header + clamped(0->1) + 1 + 2.
	if want := BatchResultHeaderBytes + 1 + 1 + 2; bytes != want {
		t.Errorf("result bytes = %d, want %d", bytes, want)
	}
}

func TestPrepareJobsClassicNoop(t *testing.T) {
	s, err := NewSession(Config{MasterCore: 0, Slaves: 3})
	if err != nil {
		t.Fatal(err)
	}
	wm := pairWire(4)
	jobs := pairJobs(sched.AllVsAll(4), wm)
	out := s.PrepareJobs(jobs, wm)
	if &out[0] != &jobs[0] {
		t.Error("classic config must return the job slice unchanged")
	}
	if s.wireReport() != nil {
		t.Error("classic config must not produce a wire report")
	}
}

func TestPrepareJobsBatchAssembly(t *testing.T) {
	s, err := NewSession(Config{MasterCore: 0, Slaves: 3, Batch: 4})
	if err != nil {
		t.Fatal(err)
	}
	wm := pairWire(5)
	pairs := sched.AllVsAll(5) // 10 pairs -> batches of 4,4,2
	jobs := pairJobs(pairs, wm)
	out := s.PrepareJobs(jobs, wm)
	if len(out) != 3 {
		t.Fatalf("got %d wire jobs, want 3", len(out))
	}
	wantLens := []int{4, 4, 2}
	for k, j := range out {
		bp, ok := j.Payload.(BatchPayload)
		if !ok {
			t.Fatalf("wire job %d payload = %#v", k, j.Payload)
		}
		if len(bp.Jobs) != wantLens[k] {
			t.Errorf("batch %d holds %d jobs, want %d", k, len(bp.Jobs), wantLens[k])
		}
		if j.ID != bp.Jobs[0].ID {
			t.Errorf("batch %d ID = %d, want first sub-job %d", k, j.ID, bp.Jobs[0].ID)
		}
		if j.SizeFor == nil {
			t.Fatalf("batch %d has no SizeFor hook", k)
		}
	}
	// Without a cache, SizeFor = batch header + per-job headers + each
	// referenced structure once (the intra-batch dedup).
	first := out[0] // pairs (0,1) (0,2) (0,3) (0,4): structures 0..4 once
	wantBytes := BatchHeaderBytes + 4*BatchJobHeaderBytes + (100 + 200 + 300 + 400 + 500)
	if got := first.SizeFor(1); got != wantBytes {
		t.Errorf("batch 0 wire size = %d, want %d", got, wantBytes)
	}
	// Baseline for the same batch ships both structures per pair.
	if s.wire.baselineBytes != int64(jobs[0].Bytes+jobs[1].Bytes+jobs[2].Bytes+jobs[3].Bytes) {
		t.Errorf("baseline accounting = %d", s.wire.baselineBytes)
	}
}

func TestPrepareJobsCachedSingles(t *testing.T) {
	s, err := NewSession(Config{MasterCore: 0, Slaves: 3, CacheStructs: 4})
	if err != nil {
		t.Fatal(err)
	}
	wm := pairWire(3)
	jobs := pairJobs([]sched.Pair{{I: 0, J: 1}, {I: 0, J: 2}}, wm)
	out := s.PrepareJobs(jobs, wm)
	if len(out) != 2 {
		t.Fatalf("cached singles must stay 1:1, got %d", len(out))
	}
	if _, ok := out[0].Payload.(sched.Pair); !ok {
		t.Fatalf("unbatched payload = %#v", out[0].Payload)
	}
	// First dispatch to slave 1 is a cold miss on both structures.
	if got := out[0].SizeFor(1); got != PairHeaderBytes+100+200 {
		t.Errorf("cold dispatch = %d", got)
	}
	// Second job to the same slave reuses structure 0.
	if got := out[1].SizeFor(1); got != PairHeaderBytes+300 {
		t.Errorf("warm dispatch = %d", got)
	}
	// A different slave starts cold.
	if got := out[1].SizeFor(2); got != PairHeaderBytes+100+300 {
		t.Errorf("other slave = %d", got)
	}
	rep := s.wireReport()
	if rep == nil || rep.CacheCapacity != 4 || rep.CacheHits != 1 {
		t.Errorf("wire report = %+v", rep)
	}
}

// TestBatchedCachedFarmEndToEnd runs a real simulated farm with caching
// and batching on and checks the collector sees every job exactly once
// with its classic payload, and the report carries the wire block.
func TestBatchedCachedFarmEndToEnd(t *testing.T) {
	var collected []int
	s, err := NewSession(Config{
		MasterCore:   0,
		Slaves:       3,
		Batch:        3,
		CacheStructs: 6,
		Collector: CollectorFunc(func(r rckskel.Result) {
			collected = append(collected, r.JobID)
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	wm := pairWire(8)
	pairs := sched.Blocked(sched.AllVsAll(8), 4)
	jobs := pairJobs(pairs, wm)
	wired := s.PrepareJobs(jobs, wm)
	s.StartSlaves(BatchHandler(func(job rckskel.Job) (any, costmodel.Counter, int) {
		return job.Payload, costmodel.Counter{ScoreEvals: 1e5}, 64
	}))
	rep, err := s.Run("", func(m *Master) {
		m.Farm(rckskel.Shared(wired), nil)
		m.Terminate()
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Collected != len(pairs) || len(collected) != len(pairs) {
		t.Fatalf("collected %d/%d results, want %d per-pair results", rep.Collected, len(collected), len(pairs))
	}
	seen := map[int]int{}
	for _, id := range collected {
		seen[id]++
	}
	for k := range jobs {
		if seen[k] != 1 {
			t.Errorf("job %d collected %d times", k, seen[k])
		}
	}
	if rep.Wire == nil {
		t.Fatal("batched run produced no wire report")
	}
	if rep.Wire.BatchedJobs != int64(len(pairs)) || rep.Wire.MaxBatchJobs != 3 {
		t.Errorf("batch stats = %+v", rep.Wire)
	}
	if rep.Wire.InputReduction <= 1 {
		t.Errorf("blocked+cached+batched reduction = %.2f, want > 1", rep.Wire.InputReduction)
	}
	if rep.Wire.CacheHitRate <= 0 {
		t.Errorf("hit rate = %v", rep.Wire.CacheHitRate)
	}
}
