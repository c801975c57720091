package core

import (
	"math"
	"path/filepath"
	"testing"

	"rckalign/internal/synth"
	"rckalign/internal/tmalign"
)

// TestFreshComparesMatchCommittedCaches ties the live kernel to the
// committed pair caches every sweep replays: a fresh default-option
// comparison of every 97th pair of CK34 and RS119 must reproduce the
// cached scores and operation counts exactly. A kernel change that moves
// one ulp of a score, or one op of the simulated charge, fails here
// instead of silently desynchronising the caches from the code.
func TestFreshComparesMatchCommittedCaches(t *testing.T) {
	const stride = 97
	for _, ds := range []*synth.Dataset{synth.CK34(), synth.RS119()} {
		path := filepath.Join("..", "..", "testdata", "paircache", ds.Name+".gob")
		pr, err := LoadPairResults(ds, path)
		if err != nil {
			t.Fatalf("%s: %v", ds.Name, err)
		}
		checked := 0
		for k := 0; k < len(pr.Pairs); k += stride {
			p := pr.Pairs[k]
			want := pr.Results[k]
			got := tmalign.Compare(ds.Structures[p.I], ds.Structures[p.J], tmalign.DefaultOptions())
			if got.Name1 != want.Name1 || got.Name2 != want.Name2 {
				t.Fatalf("%s pair %d: names %s/%s, cache %s/%s", ds.Name, k, got.Name1, got.Name2, want.Name1, want.Name2)
			}
			same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
			if !same(got.TM1, want.TM1) || !same(got.TM2, want.TM2) || !same(got.RMSD, want.RMSD) ||
				!same(got.SeqID, want.SeqID) || got.AlignedLen != want.AlignedLen {
				t.Errorf("%s %s vs %s: fresh TM=%v/%v rmsd=%v seqid=%v aligned=%d, cache TM=%v/%v rmsd=%v seqid=%v aligned=%d",
					ds.Name, got.Name1, got.Name2, got.TM1, got.TM2, got.RMSD, got.SeqID, got.AlignedLen,
					want.TM1, want.TM2, want.RMSD, want.SeqID, want.AlignedLen)
			}
			if got.Ops != want.Ops {
				t.Errorf("%s %s vs %s: fresh ops %v, cache %v", ds.Name, got.Name1, got.Name2, got.Ops, want.Ops)
			}
			checked++
		}
		t.Logf("%s: %d of %d pairs match the committed cache", ds.Name, checked, len(pr.Pairs))
	}
}
