package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite "+digestFile+" from a full RS119 sweep")

func quickOptions(t *testing.T, workload string, trace bool) options {
	return options{
		Workload: workload, Seed: 7, Seconds: 1, Trace: trace, Quick: true,
		Root: "..", Out: t.TempDir(),
	}
}

// TestRecordDigest rewrites the simulated-time digest. Run it only
// when a change to the simulator is meant to change simulated times:
//
//	go test -run TestRecordDigest -update
func TestRecordDigest(t *testing.T) {
	if !*update {
		t.Skip("pass -update to rewrite the digest")
	}
	st, err := loadRS119("..")
	if err != nil {
		t.Fatal(err)
	}
	pts := sweepPoints(false)
	rep, err := rs119SweepRep(st.pr, pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for k, pt := range pts {
		fmt.Fprintf(&b, "%s %.17g\n", pt, rep.totals[k])
	}
	if err := os.WriteFile(digestFile, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchmarkSpec is the part of BENCHMARK.json the program must match.
type benchmarkSpec struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestQuickModeEmitsEveryMetric runs every workload of BENCHMARK.json
// in quick mode, untraced and traced, and checks each result is
// correct and carries exactly the declared metrics with their units.
func TestQuickModeEmitsEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				res, err := run(quickOptions(t, w.Name, trace), io.Discard)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s missing", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if !trace {
					for n, v := range res.Metrics {
						if v.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", n, v.Value)
						}
					}
				}
			})
		}
	}
}

// exactCounts are per-layer metrics that count work, not time: two runs
// with the same seed must report them identically.
var exactCounts = []string{
	"kernel.dp_cells", "kernel.kabsch_calls", "kernel.kabsch_points", "kernel.score_evals",
	"sim.process_wakeups", "sim.callbacks", "rcce.send.messages", "noc.transfers",
	"interchip.transfers", "farm.jobs.completed", "pairstore.hits", "pairstore.misses",
	"pairstore.entries", "prune.missed", "prune.skip_frac",
}

func TestExactCountsRepeat(t *testing.T) {
	for name := range workloads {
		t.Run(name, func(t *testing.T) {
			a, err := run(quickOptions(t, name, true), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			b, err := run(quickOptions(t, name, true), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			nonzero := 0
			for _, n := range exactCounts {
				if a.Metrics[n].Value != b.Metrics[n].Value {
					t.Errorf("%s: %v then %v", n, a.Metrics[n].Value, b.Metrics[n].Value)
				}
				if a.Metrics[n].Value != 0 {
					nonzero++
				}
			}
			if nonzero == 0 {
				t.Error("every exact count is 0")
			}
		})
	}
}

// copyRoot builds a repository root in a temporary directory holding
// the given files copied from the real one, with edit applied to the
// file named edited.
func copyRoot(t *testing.T, files []string, edited string, edit func(string) string) string {
	root := t.TempDir()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join("..", f))
		if err != nil {
			t.Fatal(err)
		}
		if f == edited {
			s := edit(string(b))
			if s == string(b) {
				t.Fatalf("edit left %s unchanged", f)
			}
			b = []byte(s)
		}
		if err := os.MkdirAll(filepath.Join(root, filepath.Dir(f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestCorruptedGoldenFailsTheRun(t *testing.T) {
	golden := "testdata/golden_scores_ck34.txt"
	root := copyRoot(t, []string{golden}, golden, func(s string) string {
		// Change the last digit of the first line's SeqID.
		line, rest, _ := strings.Cut(s, "\n")
		last := line[len(line)-1]
		return line[:len(line)-1] + string('0'+(last-'0'+1)%10) + "\n" + rest
	})
	o := quickOptions(t, "ck34-cold", false)
	o.Root = root
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want an incorrect run with 1 failed pair", res.Correct, res.Failed)
	}
}

func TestWrongDigestFailsTheRun(t *testing.T) {
	digest := filepath.Join("perfbench", digestFile)
	root := copyRoot(t, []string{digest, "testdata/paircache/RS119.gob"}, digest, func(s string) string {
		// Shift the 47-slave flat run's simulated time by one digit.
		lines := strings.Split(s, "\n")
		for i, l := range lines {
			if strings.HasPrefix(l, "flat 47 ") {
				last := l[len(l)-1]
				lines[i] = l[:len(l)-1] + string('0'+(last-'0'+1)%10)
			}
		}
		return strings.Join(lines, "\n")
	})
	o := quickOptions(t, "rs119-sweep", false)
	o.Root = root
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("correct=%v failed=%d, want an incorrect run with 1 failed sweep point", res.Correct, res.Failed)
	}
}
