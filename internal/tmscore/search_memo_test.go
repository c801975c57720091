package tmscore

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/kernel"
	"rckalign/internal/synth"
)

// referenceStats counts what the unmemoised search did that the memo
// has to get right.
type referenceStats struct {
	repeats    int // extension iterations starting from a set already run in the same search
	overBudget int // repeats whose converged trajectory is longer than the budget left
	truncated  int // trajectories cut off by the iteration budget
}

// searchReference is SearchWS without trajectory reuse: every seed runs
// its extension loop to convergence or to the iteration budget. It is
// the specification the memoised search must match bit for bit.
func (p Params) searchReference(x, y []geom.Vec3, simplifyStep int, ops *costmodel.Counter) (float64, geom.Transform, referenceStats) {
	var st referenceStats
	n := len(x)
	liniMin := min(n, 4)
	var ladder []int
	for i := 0; i < 5; i++ {
		if l := n >> uint(i); l > liniMin {
			ladder = append(ladder, l)
		} else {
			break
		}
	}
	ladder = append(ladder, liniMin)

	scoreMax := -1.0
	bestT := geom.IdentityTransform()
	xt := make([]geom.Vec3, n)
	iAli := make([]int, n)
	kAli := make([]int, n)
	r1 := make([]geom.Vec3, n)
	r2 := make([]geom.Vec3, n)
	dis2 := make([]float64, n)
	// steps maps each extension set seen to the length of its converged
	// trajectory (0 while unknown).
	steps := map[string]int{}
	for _, lInit := range ladder {
		for iL := 0; iL < n-lInit+1; iL += simplifyStep {
			tr, _ := geom.Superpose(x[iL:iL+lInit], y[iL:iL+lInit])
			ops.AddKabsch(lInit)
			tr.ApplyAll(xt, x)
			ops.AddRotate(n)
			score, nCut := p.scoreFun8(xt, y, p.D0Search-1, iAli, dis2, ops)
			if score > scoreMax {
				scoreMax, bestT = score, tr
			}
			d := p.D0Search + 1
			converged := false
			var path []string
			for it := 0; it < searchIterations; it++ {
				if nCut < 1 {
					converged = true // no pairs left: the trajectory ends
					break
				}
				key := fmt.Sprint(iAli[:nCut])
				if s, ok := steps[key]; ok {
					st.repeats++
					if s > searchIterations-it {
						st.overBudget++
					}
				} else {
					steps[key] = 0
				}
				path = append(path, key)
				ka := 0
				for k := 0; k < nCut; k++ {
					m := iAli[k]
					r1[ka], r2[ka], kAli[ka] = x[m], y[m], m
					ka++
				}
				tr, _ = geom.Superpose(r1[:ka], r2[:ka])
				ops.AddKabsch(ka)
				tr.ApplyAll(xt, x)
				ops.AddRotate(n)
				score, nCut = p.scoreFun8(xt, y, d, iAli, dis2, ops)
				if score > scoreMax {
					scoreMax, bestT = score, tr
				}
				if nCut == ka {
					same := true
					for k := 0; k < nCut; k++ {
						if iAli[k] != kAli[k] {
							same = false
							break
						}
					}
					if same {
						converged = true
						break
					}
				}
			}
			if !converged {
				st.truncated++
				continue
			}
			for k, key := range path {
				steps[key] = len(path) - k
			}
		}
	}
	return scoreMax, bestT, st
}

// TestSearchWSMatchesReference checks the memoised search against the
// reference loop: score bits, transform bits and every op count, at the
// alignment-search stride (40) and the final stride (1), on inputs where
// many seeds converge to shared index sets (rigid copies, lightly
// perturbed copies) and on noisy ones whose trajectories oscillate until
// the iteration budget cuts them off. One workspace serves every call,
// so a memo left over from a previous search would show up as a
// mismatch.
func TestSearchWSMatchesReference(t *testing.T) {
	ck := synth.CK34()
	rng := rand.New(rand.NewSource(31))
	type input struct {
		name string
		x, y []geom.Vec3
	}
	var inputs []input
	g := geom.Transform{R: geom.RotZ(0.7).Mul(geom.RotX(0.4)), T: geom.V(5, -9, 3)}
	for _, k := range []int{0, 10, 24} {
		x := ck.Structures[k].CAs()
		y := make([]geom.Vec3, len(x))
		g.ApplyAll(y, x)
		inputs = append(inputs, input{fmt.Sprintf("identical/%s", ck.Structures[k].ID), x, y})
		for _, sigma := range []float64{1, 3, 6} {
			yp := make([]geom.Vec3, len(y))
			for i, v := range y {
				yp[i] = v.Add(geom.V(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma, rng.NormFloat64()*sigma))
			}
			inputs = append(inputs, input{fmt.Sprintf("perturbed%g/%s", sigma, ck.Structures[k].ID), x, yp})
		}
	}
	// Two different chains of one family, truncated to a common length:
	// an imperfect alignment like the ones the DP search hands over.
	a, b := ck.Structures[0].CAs(), ck.Structures[1].CAs()
	n := min(len(a), len(b))
	inputs = append(inputs, input{"family/glb01-glb02", a[:n], b[:n]})

	w := new(kernel.Workspace)
	var total referenceStats
	for _, in := range inputs {
		for _, step := range []int{40, 1} {
			p := SearchParams(len(in.x), len(in.y))
			var refOps, gotOps costmodel.Counter
			refTM, refT, st := p.searchReference(in.x, in.y, step, &refOps)
			gotTM, gotT := p.SearchWS(w, in.x, in.y, step, &gotOps)
			total.repeats += st.repeats
			total.overBudget += st.overBudget
			total.truncated += st.truncated
			if math.Float64bits(gotTM) != math.Float64bits(refTM) {
				t.Errorf("%s step %d: score %v, reference %v", in.name, step, gotTM, refTM)
			}
			if !sameTransformBits(gotT, refT) {
				t.Errorf("%s step %d: transform %v, reference %v", in.name, step, gotT, refT)
			}
			if gotOps != refOps {
				t.Errorf("%s step %d: ops %v, reference %v", in.name, step, gotOps, refOps)
			}
		}
	}
	t.Logf("reference: %d repeated extension starts (%d with too little budget left to replay), %d budget-truncated trajectories",
		total.repeats, total.overBudget, total.truncated)
	if total.repeats == 0 || total.overBudget == 0 || total.truncated == 0 {
		t.Fatalf("inputs exercise %+v; the check needs every case", total)
	}
}

func sameTransformBits(a, b geom.Transform) bool {
	for i := range a.R {
		for j := range a.R[i] {
			if math.Float64bits(a.R[i][j]) != math.Float64bits(b.R[i][j]) {
				return false
			}
		}
	}
	for i := range a.T {
		if math.Float64bits(a.T[i]) != math.Float64bits(b.T[i]) {
			return false
		}
	}
	return true
}
