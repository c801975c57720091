// Command perfbench is rckalign's benchmark. It drives the module's
// public entry points (core, pairstore, tmalign, server, loadgen, ...)
// on one of three workloads, checks every output against committed
// goldens, and prints one JSON result line:
//
//	perfbench --workload ck34-cold|rs119-sweep|serve-ck34 --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics, measured on host
// wall-clock with tracing off. With --trace 1 it runs the workload once
// untraced and once traced, and reports the per-layer metrics: spans
// around every call into the module (self time per layer, coverage of
// wall time, tracing overhead), the layers' exact work counts, and a
// CPU profile written next to the span file. Simulated seconds are
// checked against a digest, never reported as performance.
//
// Run it from the repository root (it reads testdata/ there), usually
// through perfbench/run.sh, which builds it first. README.md lists the
// metrics and which layer each should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ Name, Unit string }

// endToEnd are the metrics a user of the system sees, reported by an
// untraced run of every workload. Each workload defines them on its
// own work (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"pairs_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
}

// traceLayers are the layers whose self time a traced run reports.
var traceLayers = []string{
	"bench", "setup", "pairstore", "tmalign", "geom", "tmscore", "seqalign",
	"core", "prune", "loadgen", "http", "server", "batcher",
}

// perLayer are the metrics of a traced run. A workload that does not
// exercise a layer reports its metrics as 0.
var perLayer = append([]metricSpec{
	{"tmalign.compare_ms.p50", "ms"},
	{"tmalign.compare_ms.p98", "ms"},
	{"tmalign.compare_ms.max", "ms"},
	{"geom.superpose_us.p50", "us"},
	{"tmscore.search_ms.p50", "ms"},
	{"seqalign.align_us.p50", "us"},
	{"kernel.dp_cells", "count"},
	{"kernel.kabsch_calls", "count"},
	{"kernel.kabsch_points", "count"},
	{"kernel.score_evals", "count"},
	{"kernel.dp_cells_per_s", "1/s"},
	{"pairstore.hits", "count"},
	{"pairstore.misses", "count"},
	{"pairstore.entries", "count"},
	{"pairstore.prefetch_s", "s"},
	{"pairstore.worker_busy_frac", "fraction"},
	{"core.run_ms.p50", "ms"},
	{"core.run_ms.sum", "ms"},
	{"core.multichip_ms.sum", "ms"},
	{"sim.process_wakeups", "count"},
	{"sim.callbacks", "count"},
	{"sim.events_per_s", "1/s"},
	{"rcce.send.messages", "count"},
	{"noc.transfers", "count"},
	{"interchip.transfers", "count"},
	{"farm.jobs.completed", "count"},
	{"prune.us_per_pair", "us"},
	{"prune.skip_frac", "fraction"},
	{"prune.missed", "count"},
	{"batcher.queue_wait_ms.p50", "ms"},
	{"batcher.queue_wait_ms.p99", "ms"},
	{"batcher.compute_ms.p50", "ms"},
	{"batcher.batch_size.mean", "count"},
	{"batcher.timer_flush_frac", "fraction"},
	{"batcher.peak_pending", "count"},
	{"server.total_ms.p50", "ms"},
	{"server.total_ms.p99", "ms"},
	{"http.overhead_ms.p50", "ms"},
	{"server.upload_ms.p50", "ms"},
	{"serve.read_max_rps", "1/s"},
	{"serve.ingest_p50_s", "s"},
	{"serve.read_p99_ms", "ms"},
	{"setup.synth_ms", "ms"},
	{"setup.cache_load_ms", "ms"},
	{"setup.memo_warm_ms", "ms"},
	{"loadgen.late_ms.p99", "ms"},
	{"trace.coverage_frac", "fraction"},
	{"trace.overhead_s", "s"},
	{"trace.spans", "count"},
}, selfTimeSpecs()...)

func selfTimeSpecs() []metricSpec {
	out := make([]metricSpec, len(traceLayers))
	for i, l := range traceLayers {
		out[i] = metricSpec{"self_s." + l, "s"}
	}
	return out
}

// options are the parsed command-line arguments.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Quick shrinks every workload to a few seconds of work for the
	// benchmark's own tests; its numbers are not comparable.
	Quick bool
	// Root is the repository root holding testdata/.
	Root string
	// Out receives the span file and CPU profile of a traced run.
	Out string
}

// outcome is what one workload run measured and checked.
type outcome struct {
	Attempted, Failed int
	Metrics           map[string]float64
	// Notes are human-readable lines (sample counts, named extras)
	// printed before the result.
	Notes []string
	// CheckErrs are failed output checks; any makes the run incorrect.
	CheckErrs []error
}

func newOutcome() *outcome { return &outcome{Metrics: map[string]float64{}} }

func (o *outcome) notef(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

func (o *outcome) check(err error) {
	if err != nil {
		o.CheckErrs = append(o.CheckErrs, err)
	}
}

// workloads maps a workload name to its runner. A runner returns an
// error only when it could not run at all (missing inputs); failed
// output checks go into outcome.CheckErrs.
var workloads = map[string]func(options) (*outcome, error){
	"ck34-cold":   runCK34Cold,
	"rs119-sweep": runRS119Sweep,
	"serve-ck34":  runServeCK34,
}

// metricValue is one entry of the result's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line the benchmark prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult selects the metrics of the run's mode from an outcome.
// Every selected metric must have been measured.
func buildResult(o options, out *outcome) (result, error) {
	specs := endToEnd
	if o.Trace {
		specs = perLayer
	}
	r := result{
		Correct:   len(out.CheckErrs) == 0,
		Attempted: out.Attempted,
		Failed:    out.Failed,
		Metrics:   make(map[string]metricValue, len(specs)),
	}
	for _, s := range specs {
		v, ok := out.Metrics[s.Name]
		if !ok {
			return r, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		r.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if r.Attempted < 1 {
		return r, errors.New("no operation was attempted")
	}
	return r, nil
}

// run executes one workload and writes the report to w. It returns the
// result, or an error when the workload could not run.
func run(o options, w io.Writer) (result, error) {
	fn, ok := workloads[o.Workload]
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", o.Workload)
	}
	if o.Trace {
		if err := os.MkdirAll(o.Out, 0o755); err != nil {
			return result{}, err
		}
	}
	out, err := fn(o)
	if err != nil {
		return result{}, err
	}
	res, err := buildResult(o, out)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %g trace %v\n", o.Workload, o.Seed, o.Seconds, o.Trace)
	for _, n := range out.Notes {
		fmt.Fprintln(w, n)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-28s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	for _, e := range out.CheckErrs {
		fmt.Fprintln(w, "CHECK FAILED:", e)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintln(w, string(line))
	return res, nil
}

// startProfile starts a CPU profile at path; the returned function
// stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// traceFiles returns the span-file and profile paths of a traced run.
func traceFiles(o options) (spans, profile string) {
	base := filepath.Join(o.Out, fmt.Sprintf("%s-seed%d", o.Workload, o.Seed))
	return base + ".spans.json", base + ".cpu.pprof"
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "ck34-cold, rs119-sweep or serve-ck34")
	flag.Int64Var(&o.Seed, "seed", 1, "workload seed (picks the ingested chains and the read trace)")
	flag.Float64Var(&o.Seconds, "seconds", 15, "measured time per run, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.BoolVar(&o.Quick, "quick", false, "shrink every workload for a fast self-test")
	flag.StringVar(&o.Root, "root", ".", "repository root holding testdata/")
	flag.StringVar(&o.Out, "out", ".bench_out", "directory for span files and CPU profiles")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.Trace = trace == 1
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}
