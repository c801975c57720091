package farm_test

// Timing goldens for the farm paths the classic golden.json does not
// cover: fault plans (kill, stall, drop, corrupt), cache-affinity
// farming and the batched structure-cache wire, each flat and (where
// the path shards) at two chips. testdata/golden_paths.json holds the
// exact reports; any change to the farm loop must reproduce them bit
// for bit. Regenerate only when a timing model change is intended:
//
//	go test ./internal/farm -run TestGoldenPathReports -update

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"

	"rckalign/internal/core"
	"rckalign/internal/farm"
	"rckalign/internal/fault"
	"rckalign/internal/rckskel"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_paths.json from the current code")

// pathReport is the captured slice of a farm.Report.
type pathReport struct {
	Name         string           `json:"name"`
	TotalSeconds float64          `json:"total_seconds"`
	FarmStats    rckskel.Stats    `json:"farm_stats"`
	Collected    int              `json:"collected"`
	Faults       *farm.FaultStats `json:"faults,omitempty"`
	Wire         *farm.WireReport `json:"wire,omitempty"`
}

// pathScenario is one captured configuration: slaves per chip, chip
// count (1 = the flat core.Run path), an optional fault spec, and
// config edits.
type pathScenario struct {
	name   string
	slaves int
	chips  int
	faults string
	edit   func(*core.Config)
}

func affinity(c *core.Config) { c.Affinity = true }

func cachedBatch(c *core.Config) {
	c.CacheStructs = -1
	c.Batch = 8
}

// pathScenarios run on the 8-chain golden set (28 pairs). Flat runs
// use 7 slaves (cores 1..7, ~1.7 s fault-free); two-chip runs use 4
// slaves per chip (cores 1..4 and 49..52).
var pathScenarios = []pathScenario{
	{name: "kill-flat", slaves: 7, chips: 1, faults: "kill=3@0.5;kill=6@0.9"},
	{name: "stall-flat", slaves: 7, chips: 1, faults: "stall=2@0.3+3.0"},
	{name: "drop-flat", slaves: 7, chips: 1, faults: "seed=3;drop=*>*@p0.08"},
	{name: "corrupt-flat", slaves: 7, chips: 1, faults: "seed=5;corrupt=*>*@p0.1"},
	{name: "kill-chips2", slaves: 4, chips: 2, faults: "kill=2@0.5;kill=50@0.7"},
	{name: "stall-chips2", slaves: 4, chips: 2, faults: "stall=3@0.3+3.0;stall=51@0.2+0.8"},
	{name: "drop-chips2", slaves: 4, chips: 2, faults: "seed=3;drop=*>*@p0.08"},
	{name: "corrupt-chips2", slaves: 4, chips: 2, faults: "seed=5;corrupt=*>*@p0.1"},
	{name: "affinity-flat", slaves: 7, chips: 1, edit: affinity},
	{name: "affinity-chips2", slaves: 4, chips: 2, edit: affinity},
	{name: "structcache-batch8-flat", slaves: 7, chips: 1, edit: cachedBatch},
}

func runPathScenario(t *testing.T, pr *core.PairResults, sc pathScenario) pathReport {
	t.Helper()
	cfg := core.MultiChipConfig{Config: core.DefaultConfig(), Chips: sc.chips}
	if sc.faults != "" {
		plan, err := fault.ParseSpec(sc.faults)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		cfg.Faults = plan
	}
	if sc.edit != nil {
		sc.edit(&cfg.Config)
	}
	r, err := core.RunMultiChip(pr, sc.slaves, cfg)
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	return pathReport{
		Name:         sc.name,
		TotalSeconds: r.TotalSeconds,
		FarmStats:    r.FarmStats,
		Collected:    r.Collected,
		Faults:       r.Faults,
		Wire:         r.Wire,
	}
}

// TestGoldenPathReports re-runs every captured scenario and demands the
// byte-identical JSON report (encoding/json round-trips float64
// exactly).
func TestGoldenPathReports(t *testing.T) {
	if testing.Short() {
		t.Skip("native TM-align pass in -short mode")
	}
	pr := goldenPairs()
	var got []pathReport
	for _, sc := range pathScenarios {
		got = append(got, runPathScenario(t, pr, sc))
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	const path = "testdata/golden_paths.json"
	if *updateGolden {
		if err := os.WriteFile(path, buf, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if bytes.Equal(buf, want) {
		return
	}
	var wantReps []pathReport
	if err := json.Unmarshal(want, &wantReps); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	for i, w := range wantReps {
		if i >= len(got) {
			t.Errorf("%s: scenario missing", w.Name)
			continue
		}
		gb, _ := json.Marshal(got[i])
		wb, _ := json.Marshal(w)
		if !bytes.Equal(gb, wb) {
			t.Errorf("%s diverges from golden:\n got %s\nwant %s", w.Name, gb, wb)
		}
	}
	if len(got) != len(wantReps) {
		t.Errorf("%d scenarios, golden has %d", len(got), len(wantReps))
	}
}
