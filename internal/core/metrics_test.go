package core

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/metrics"
	"rckalign/internal/trace"
)

// metricsRun executes the package's small synthetic workload with
// metrics and tracing enabled.
func metricsRun(t *testing.T, slaves int) (RunResult, *metrics.Registry, *trace.Recorder) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Metrics = metrics.New()
	cfg.Trace = trace.New()
	r, err := Run(smallPR, slaves, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, cfg.Metrics, cfg.Trace
}

// TestMetricsDoNotPerturbTimings pins the zero-cost-when-observing rule:
// an instrumented run's report must be identical to an uninstrumented
// one in every field except the Metrics block itself.
func TestMetricsDoNotPerturbTimings(t *testing.T) {
	base, err := Run(smallPR, 7, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	instr, _, _ := metricsRun(t, 7)
	if instr.Report.Metrics == nil {
		t.Fatal("instrumented run has no Metrics block")
	}
	got := instr.Report
	got.Metrics = nil
	if !reflect.DeepEqual(got, base.Report) {
		t.Errorf("instrumentation changed the report:\n got %+v\nwant %+v", got, base.Report)
	}
}

// TestMetricsReportBlock sanity-checks the distilled summary against the
// known workload: 28 jobs, every stage observed once per job, a real
// worst link and heatmap from the contended mesh.
func TestMetricsReportBlock(t *testing.T) {
	r, reg, rec := metricsRun(t, 7)
	mr := r.Report.Metrics
	if mr == nil {
		t.Fatal("no Metrics block")
	}
	for _, stage := range []string{"dispatch_wait", "input_xfer", "compute", "result_xfer", "collect_wait"} {
		if got := mr.JobStages[stage].Count; got != 28 {
			t.Errorf("stage %s count = %d, want 28", stage, got)
		}
	}
	if mr.JobStages["compute"].TotalSeconds <= 0 {
		t.Error("no compute time observed")
	}
	if mr.PeakMailboxDepth < 1 {
		t.Errorf("peak mailbox depth = %v, want >= 1", mr.PeakMailboxDepth)
	}
	if mr.WorstLink == "" || mr.WorstLinkBusySeconds <= 0 {
		t.Errorf("no worst link: %q busy=%v", mr.WorstLink, mr.WorstLinkBusySeconds)
	}
	if !strings.Contains(mr.LinkHeatmap, "peak link busy") {
		t.Errorf("heatmap missing legend:\n%s", mr.LinkHeatmap)
	}
	if got := reg.Counter("farm.jobs.completed").Value(); got != 28 {
		t.Errorf("farm.jobs.completed = %v, want 28", got)
	}

	// The Chrome trace carries one thread track per traced core (7
	// slaves + master) plus counter tracks from the registry series.
	ct := farm.BuildChromeTrace(rec, reg)
	var buf bytes.Buffer
	if err := ct.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), `"thread_name"`); got != 8 {
		t.Errorf("thread tracks = %d, want 8", got)
	}
	for _, track := range []string{"farm.master.mailbox_depth", "noc.links.active"} {
		if !strings.Contains(buf.String(), track) {
			t.Errorf("chrome trace missing counter track %s", track)
		}
	}
}

// TestMetricsStagesUnderEmptyFaultPlan: the fault-tolerant farm records
// the same per-job latency decomposition as the classic one — every
// stage once per job, with identical aggregates when nothing is
// injected.
func TestMetricsStagesUnderEmptyFaultPlan(t *testing.T) {
	classic, _, _ := metricsRun(t, 7)
	cfg := DefaultConfig()
	cfg.Metrics = metrics.New()
	cfg.Faults = &fault.Plan{}
	ft, err := Run(smallPR, 7, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"dispatch_wait", "input_xfer", "compute", "result_xfer", "collect_wait"} {
		if got := ft.Metrics.JobStages[stage].Count; got != 28 {
			t.Errorf("stage %s count = %d under an empty plan, want 28", stage, got)
		}
	}
	if !reflect.DeepEqual(ft.Metrics.JobStages, classic.Metrics.JobStages) {
		t.Errorf("empty-plan job stages diverge:\n got %+v\nwant %+v", ft.Metrics.JobStages, classic.Metrics.JobStages)
	}
}

// TestMetricsGoldenSnapshot pins byte-identical determinism: the same
// run serialises to the committed golden, and two identical runs agree
// byte for byte. Regenerate with UPDATE_GOLDEN=1 go test ./internal/core
// after an intentional metrics change.
func TestMetricsGoldenSnapshot(t *testing.T) {
	snapshot := func() []byte {
		_, reg, _ := metricsRun(t, 7)
		var buf bytes.Buffer
		if err := reg.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	got := snapshot()
	if !bytes.Equal(got, snapshot()) {
		t.Fatal("two identical runs produced different snapshots")
	}
	golden := filepath.Join("testdata", "golden_metrics.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("snapshot differs from %s (%d vs %d bytes); run with UPDATE_GOLDEN=1 if the change is intentional",
			golden, len(got), len(want))
	}
}
