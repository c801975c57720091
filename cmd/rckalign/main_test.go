package main

import (
	"strings"
	"testing"

	"rckalign/internal/farm"
	"rckalign/internal/interchip"
	"rckalign/internal/sched"
)

// valid returns a flag set that passes validation; tests mutate one
// field at a time.
func valid() cliFlags {
	return cliFlags{Slaves: 47, Order: "FIFO", Threads: 1, Polling: 1, Chips: 1}
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		mut     func(*cliFlags)
		wantErr string // substring of the one-line diagnostic; "" = valid
	}{
		{"defaults", func(f *cliFlags) {}, ""},
		{"order lpt lowercase", func(f *cliFlags) { f.Order = "lpt" }, ""},
		{"order unknown", func(f *cliFlags) { f.Order = "LIFO" }, "-order"},
		{"slaves zero", func(f *cliFlags) { f.Slaves = 0 }, "-slaves"},
		{"slaves too many", func(f *cliFlags) { f.Slaves = 48 }, "-slaves"},
		{"slaves ignored under sweep", func(f *cliFlags) { f.Slaves = 0; f.Sweep = true }, ""},
		{"hierarchy negative", func(f *cliFlags) { f.Hierarchy = -1 }, "-hierarchy"},
		{"threads zero", func(f *cliFlags) { f.Threads = 0 }, "-threads"},
		{"membudget negative", func(f *cliFlags) { f.MemBudget = -5 }, "-membudget"},
		{"deadline negative", func(f *cliFlags) { f.Deadline = -1 }, "-deadline"},
		{"polling negative", func(f *cliFlags) { f.Polling = -0.5 }, "-polling"},
		{"polling zero is the event-driven ablation", func(f *cliFlags) { f.Polling = 0 }, ""},
		{"structcache derive sentinel", func(f *cliFlags) { f.StructCache = -1 }, ""},
		{"structcache below sentinel", func(f *cliFlags) { f.StructCache = -2 }, "-structcache"},
		{"batch zero is classic wire", func(f *cliFlags) { f.Batch = 0 }, ""},
		{"batch negative", func(f *cliFlags) { f.Batch = -1 }, "-batch"},
		{"tile force-off sentinel", func(f *cliFlags) { f.Tile = -1 }, ""},
		{"tile below sentinel", func(f *cliFlags) { f.Tile = -2 }, "-tile"},
		{"hostpar zero is serial", func(f *cliFlags) { f.HostPar = 0 }, ""},
		{"hostpar negative", func(f *cliFlags) { f.HostPar = -4 }, "-hostpar"},
		{"chips four", func(f *cliFlags) { f.Chips = 4 }, ""},
		{"chips zero", func(f *cliFlags) { f.Chips = 0 }, "-chips"},
		{"chips above cap", func(f *cliFlags) { f.Chips = 65 }, "-chips"},
		{"interchip named profile", func(f *cliFlags) { f.Chips = 2; f.Interchip = "cluster" }, ""},
		{"interchip key-value spec", func(f *cliFlags) { f.Chips = 2; f.Interchip = "lat=1e-6,bw=2e9" }, ""},
		{"interchip unknown profile", func(f *cliFlags) { f.Interchip = "warp" }, "-interchip"},
		{"interchip bad value", func(f *cliFlags) { f.Interchip = "bw=fast" }, "-interchip"},
		{"chips with faults", func(f *cliFlags) { f.Chips = 2; f.FaultSpec = "kill=3@10" }, ""},
		{"chips with affinity", func(f *cliFlags) { f.Chips = 2; f.Affinity = true }, ""},
		{"chips with affinity and faults", func(f *cliFlags) {
			f.Chips = 2
			f.Affinity = true
			f.FaultSpec = "kill=3@10"
		}, "-affinity"},
		{"affinity with faults", func(f *cliFlags) { f.Affinity = true; f.FaultSpec = "seed=1" }, "-affinity"},
		{"chips with hierarchy", func(f *cliFlags) { f.Chips = 2; f.Hierarchy = 4 }, "-hierarchy"},
		{"chips with membudget", func(f *cliFlags) { f.Chips = 2; f.MemBudget = 5000 }, "-membudget"},
		{"single chip keeps faults", func(f *cliFlags) { f.Chips = 1; f.FaultSpec = "kill=3@10" }, ""},
		{"gather tree", func(f *cliFlags) { f.Chips = 8; f.Gather = "tree" }, ""},
		{"gather tree with arity", func(f *cliFlags) { f.Chips = 8; f.Gather = "tree:2" }, ""},
		{"gather flat", func(f *cliFlags) { f.Chips = 8; f.Gather = "flat" }, ""},
		{"gather unknown", func(f *cliFlags) { f.Gather = "ring" }, "-gather"},
		{"gather bad arity", func(f *cliFlags) { f.Gather = "tree:0" }, "-gather"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := valid()
			tc.mut(&f)
			_, _, _, err := validateFlags(f)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("validateFlags(%+v) = %v, want ok", f, err)
				}
				return
			}
			if err == nil {
				t.Fatalf("validateFlags(%+v) accepted, want error naming %s", f, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not name the flag %s", err, tc.wantErr)
			}
			if strings.ContainsRune(err.Error(), '\n') {
				t.Errorf("diagnostic is not one line: %q", err)
			}
		})
	}
}

func TestValidateFlagsResolvesInterchip(t *testing.T) {
	f := valid()
	_, got, _, err := validateFlags(f)
	if err != nil || got != interchip.DefaultConfig() {
		t.Errorf("empty -interchip resolved to %+v (err %v), want the board profile", got, err)
	}
	f.Interchip = "cluster"
	_, got, _, err = validateFlags(f)
	cluster, _ := interchip.Profile("cluster")
	if err != nil || got != cluster {
		t.Errorf("-interchip cluster resolved to %+v (err %v), want %+v", got, err, cluster)
	}
}

func TestValidateFlagsResolvesGather(t *testing.T) {
	f := valid()
	_, _, gcfg, err := validateFlags(f)
	want := farm.GatherConfig{Mode: farm.GatherTree, Arity: farm.DefaultGatherArity}
	if err != nil || gcfg != want {
		t.Errorf("empty -gather resolved to %+v (err %v), want %+v", gcfg, err, want)
	}
	f.Gather = "tree:2"
	_, _, gcfg, err = validateFlags(f)
	if err != nil || gcfg.Mode != farm.GatherTree || gcfg.Arity != 2 {
		t.Errorf("-gather tree:2 resolved to %+v (err %v)", gcfg, err)
	}
	f.Gather = "flat"
	_, _, gcfg, err = validateFlags(f)
	if err != nil || gcfg.Mode != farm.GatherFlat {
		t.Errorf("-gather flat resolved to %+v (err %v)", gcfg, err)
	}
}

func TestValidateFlagsResolvesOrder(t *testing.T) {
	for in, want := range map[string]sched.Order{
		"FIFO": sched.FIFO, "fifo": sched.FIFO,
		"LPT": sched.LPT, "SPT": sched.SPT, "Random": sched.Random,
	} {
		f := valid()
		f.Order = in
		got, _, _, err := validateFlags(f)
		if err != nil {
			t.Errorf("order %q rejected: %v", in, err)
			continue
		}
		if got != want {
			t.Errorf("order %q resolved to %v, want %v", in, got, want)
		}
	}
}
