package tmalign

import (
	"testing"

	"rckalign/internal/kernel"
	"rckalign/internal/synth"
)

// warmCompareAllocs is the allocation count of a warm CompareCAWS: the
// two secondary-structure assignments and the Result with its final
// alignment and the aligned-pair index. Every kernel buffer, the DP
// tables and the comparison and search memos come from the workspace.
const warmCompareAllocs = 5

// TestWarmCompareCAWSAllocs pins the allocations of a comparison on a
// warm workspace (CK34 pair 0/1), so neither the memo tables nor any
// per-search scratch can start allocating in steady state unnoticed.
func TestWarmCompareCAWSAllocs(t *testing.T) {
	ck := synth.CK34()
	x, y := ck.Structures[0], ck.Structures[1]
	xa, ya, s1, s2 := x.CAs(), y.CAs(), x.Sequence(), y.Sequence()
	w := new(kernel.Workspace)
	opt := DefaultOptions()
	CompareCAWS(w, xa, ya, s1, s2, opt)
	if got := testing.AllocsPerRun(5, func() { CompareCAWS(w, xa, ya, s1, s2, opt) }); got > warmCompareAllocs {
		t.Errorf("warm CompareCAWS allocates %v times, want at most %d", got, warmCompareAllocs)
	}
}
