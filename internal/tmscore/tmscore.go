// Package tmscore implements the TM-score machinery of TM-align (Zhang &
// Skolnick 2005): the length-dependent d0 normalization, the score_fun8
// scoring kernel and the TMscore8_search iterative fragment-superposition
// search that finds the rotation maximising the TM-score of a fixed
// alignment.
package tmscore

import (
	"errors"
	"fmt"
	"math"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/kernel"
)

// ErrAlignedLength reports aligned coordinate sets of different
// lengths — a kernel precondition violation. Scoring panics with an
// error wrapping this sentinel so a recovery boundary
// (tmalign.TryCompare) can surface it as a caller-visible error.
var ErrAlignedLength = errors.New("tmscore: aligned coordinate sets differ in length")

// Params bundles the scoring parameters for one comparison, mirroring
// TM-align's parameter_set4search / parameter_set4final.
type Params struct {
	// LNorm is the normalization length (float: the "average length"
	// option normalises by a non-integer).
	LNorm float64
	// D0 is the TM-score distance scale.
	D0 float64
	// D0Search is D0 clamped to [4.5, 8], used as the pair-inclusion
	// cutoff seed during iterative extension.
	D0Search float64
	// ScoreD8 is the long-distance cutoff: in search mode, pairs beyond
	// it contribute nothing to the score.
	ScoreD8 float64
}

// d0OfLength is the canonical TM-score d0 formula.
func d0OfLength(l float64) float64 {
	return 1.24*math.Cbrt(l-15) - 1.8
}

func clampSearch(d0 float64) float64 {
	if d0 > 8 {
		return 8
	}
	if d0 < 4.5 {
		return 4.5
	}
	return d0
}

// SearchParams returns the parameter set TM-align uses while searching
// for the optimal alignment of chains with lengths xlen and ylen
// (normalization by the shorter chain, inflated d0 for robustness,
// score_d8 long-distance cutoff).
func SearchParams(xlen, ylen int) Params {
	lnorm := float64(min(xlen, ylen))
	var d0 float64
	if lnorm <= 19 {
		d0 = 0.168
	} else {
		d0 = d0OfLength(lnorm)
	}
	d0 += 0.8 // D0_MIN = d0+0.8; d0 = D0_MIN ("best for search")
	return Params{
		LNorm:    lnorm,
		D0:       d0,
		D0Search: clampSearch(d0),
		ScoreD8:  1.5*math.Pow(lnorm, 0.3) + 3.5,
	}
}

// FinalParams returns the parameter set used to report the final TM-score
// normalised by length l (parameter_set4final). The d8 cutoff is disabled
// in final scoring.
func FinalParams(l float64) Params {
	var d0 float64
	if l <= 21 {
		d0 = 0.5
	} else {
		d0 = d0OfLength(l)
	}
	if d0 < 0.5 {
		d0 = 0.5
	}
	return Params{
		LNorm:    l,
		D0:       d0,
		D0Search: clampSearch(d0),
	}
}

// scoreFun8 is TM-align's score_fun8: given already-transformed aligned
// coordinates, it sums 1/(1+(d/d0)^2) (optionally only over pairs with
// d <= score_d8) and collects into iAli the indices with d < d; if fewer
// than 3 pairs qualify the cutoff is relaxed by 0.5 A steps. It returns
// the TM-score (sum/LNorm) and the number of collected pairs.
//
// The squared distances are computed once into dis2 (the score does not
// depend on the collection cutoff) and the relaxation rounds re-scan the
// cached distances only. The d8-cutoff branch is hoisted out of the
// inner loop and the distance arithmetic is unrolled in Vec3.Dist2's
// evaluation order, so scores are bit-identical to the reference loop.
// The op charge still mirrors the reference score_fun8, which rescans
// all n pairs (distances and scores) on every relaxation round — the
// simulated kernel cost is unchanged.
func (p Params) scoreFun8(xt, y []geom.Vec3, d float64, iAli []int, dis2 []float64, ops *costmodel.Counter) (float64, int) {
	n := len(xt)
	d02 := p.D0 * p.D0
	var scoreSum float64
	y = y[:n]
	dis2 = dis2[:n]
	if p.ScoreD8 > 0 {
		d8cut2 := p.ScoreD8 * p.ScoreD8
		for i := range xt {
			a, b := &xt[i], &y[i]
			dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
			di := dx*dx + dy*dy + dz*dz
			dis2[i] = di
			if di <= d8cut2 {
				scoreSum += 1 / (1 + di/d02)
			}
		}
	} else {
		for i := range xt {
			a, b := &xt[i], &y[i]
			dx, dy, dz := a[0]-b[0], a[1]-b[1], a[2]-b[2]
			di := dx*dx + dy*dy + dz*dz
			dis2[i] = di
			scoreSum += 1 / (1 + di/d02)
		}
	}
	dTmp := d * d
	nCut := 0
	for inc := 0; ; inc++ {
		nCut = 0
		for i, di := range dis2 {
			if di < dTmp {
				iAli[nCut] = i
				nCut++
			}
		}
		ops.AddScore(n)
		if nCut < 3 && n > 3 {
			dinc := d + float64(inc+1)*0.5
			dTmp = dinc * dinc
			continue
		}
		break
	}
	return scoreSum / p.LNorm, nCut
}

// searchIterations is TM-align's n_it: refinement steps per seed fragment.
const searchIterations = 20

// Search finds the rigid transform of x that maximises the TM-score of
// the fixed alignment (x[i] <-> y[i]): TM-align's TMscore8_search. Seed
// fragments of halving lengths slide along the alignment with stride
// simplifyStep (40 during alignment search, 1 for final scoring); each
// seed is superposed, scored, and iteratively extended over the pairs
// within distance cutoffs until convergence. It returns the best score
// and the transform achieving it.
//
// Search checks scratch out of the kernel workspace pool; workers that
// own a workspace should call SearchWS directly.
func (p Params) Search(x, y []geom.Vec3, simplifyStep int, ops *costmodel.Counter) (float64, geom.Transform) {
	w := kernel.Get()
	defer kernel.Put(w)
	return p.SearchWS(w, x, y, simplifyStep, ops)
}

// SearchWS is Search running on the caller's workspace (the Search*
// buffer group; every other group is left untouched, so a caller may be
// mid-flight in the comparison layer).
func (p Params) SearchWS(w *kernel.Workspace, x, y []geom.Vec3, simplifyStep int, ops *costmodel.Counter) (float64, geom.Transform) {
	n := len(x)
	if n != len(y) {
		panic(fmt.Errorf("%w (Search: %d vs %d)", ErrAlignedLength, n, len(y)))
	}
	if n == 0 {
		return 0, geom.IdentityTransform()
	}
	if simplifyStep < 1 {
		simplifyStep = 1
	}

	// Fragment-length ladder: n, n/2, n/4, ... down to min(n, 4).
	const nInitMax = 6
	liniMin := 4
	if n < liniMin {
		liniMin = n
	}
	var ladderBuf [nInitMax]int
	ladder := ladderBuf[:0]
	for i := 0; i < nInitMax-1; i++ {
		l := n >> uint(i)
		if l > liniMin {
			ladder = append(ladder, l)
		} else {
			break
		}
	}
	ladder = append(ladder, liniMin)

	// Trajectory replay needs op snapshots even when the caller does
	// not count.
	var discard costmodel.Counter
	if ops == nil {
		ops = &discard
	}
	memo := &w.SearchMemo
	memo.Reset()

	scoreMax := -1.0
	bestT := geom.IdentityTransform()
	w.ReserveSearch(n)
	xt := w.SearchXt[:n]
	iAli := w.SearchIAli[:n]
	kAli := w.SearchKAli[:n]
	r1 := w.SearchR1[:n]
	r2 := w.SearchR2[:n]
	dis2 := w.SearchDis2[:n]
	key := w.SearchKey

	for _, lInit := range ladder {
		iLMax := n - lInit + 1
		for iL := 0; iL < iLMax; iL += simplifyStep {
			tr, _ := geom.Superpose(x[iL:iL+lInit], y[iL:iL+lInit])
			ops.AddKabsch(lInit)
			tr.ApplyAll(xt, x)
			ops.AddRotate(n)

			score, nCut := p.scoreFun8(xt, y, p.D0Search-1, iAli, dis2, ops)
			if score > scoreMax {
				scoreMax = score
				bestT = tr
			}

			// Iterative extension with a looser cutoff. Each step maps
			// the index set iAli[:nCut] to the next one through a pure
			// superpose -> rotate -> score, so the trajectory from a set
			// is fixed within this search. Once a trajectory from a set
			// has converged, rerunning it can only rescore values
			// scoreMax already holds (it moves on a strict >), so a set
			// seen again is skipped when its recorded length fits the
			// remaining budget and only its op charge is replayed.
			// open holds the trajectory's sets still awaiting a length.
			d := p.D0Search + 1
			var open [searchIterations]pendingSet
			nOpen := 0
			for it := 0; ; it++ {
				if nCut < 1 {
					// No pairs: the trajectory ends without more work.
					closeTrajectory(memo, open[:nOpen], it, ops)
					break
				}
				if it == searchIterations {
					break // budget exhausted: the length stays unknown
				}
				e, seen := memo.Find(setKey(key, iAli[:nCut]))
				if v := memo.Val(e); seen && v.Steps > 0 && v.Steps <= searchIterations-it {
					ops.Add(v.Ops)
					closeTrajectory(memo, open[:nOpen], it+v.Steps, ops)
					break
				}
				open[nOpen] = pendingSet{ent: e, it: it, ops: *ops}
				nOpen++

				ka := 0
				for k := 0; k < nCut; k++ {
					m := iAli[k]
					r1[ka] = x[m]
					r2[ka] = y[m]
					kAli[ka] = m
					ka++
				}
				tr, _ = geom.Superpose(r1[:ka], r2[:ka])
				ops.AddKabsch(ka)
				tr.ApplyAll(xt, x)
				ops.AddRotate(n)
				score, nCut = p.scoreFun8(xt, y, d, iAli, dis2, ops)
				if score > scoreMax {
					scoreMax = score
					bestT = tr
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
						closeTrajectory(memo, open[:nOpen], it+1, ops)
						break // converged
					}
				}
			}
		}
	}
	return scoreMax, bestT
}

// setKey writes the index set s (indices below 64*len(key)) into key
// as a bitset: one bit per aligned pair, so every set of one search has
// a key of the same few words.
func setKey(key, s []int) []int {
	clear(key)
	for _, i := range s {
		key[i>>6] |= 1 << (i & 63)
	}
	return key
}

// pendingSet is an extension index set of the running trajectory: its
// memo entry, the iteration it started at and the op count before it.
type pendingSet struct {
	ent int
	it  int
	ops costmodel.Counter
}

// closeTrajectory records, for each open set of a trajectory that
// converged (or ran out of pairs) at iteration end, how many steps the
// trajectory took from it and what they charged.
func closeTrajectory(memo *kernel.Memo[kernel.Trajectory], open []pendingSet, end int, ops *costmodel.Counter) {
	for _, s := range open {
		v := memo.Val(s.ent)
		v.Steps = end - s.it
		v.Ops = ops.Sub(s.ops)
	}
}

// ScoreWithTransform returns the TM-score of the fixed alignment under a
// given transform of x, without searching (pairs beyond ScoreD8 excluded
// when it is set). The transform is hoisted into scalars, in Apply's
// evaluation order, so the fused rotate+distance+score pass is
// bit-identical to the reference loop.
func (p Params) ScoreWithTransform(x, y []geom.Vec3, tr geom.Transform, ops *costmodel.Counter) float64 {
	if len(x) != len(y) {
		panic(fmt.Errorf("%w (ScoreWithTransform: %d vs %d)", ErrAlignedLength, len(x), len(y)))
	}
	d02 := p.D0 * p.D0
	d8cut2 := p.ScoreD8 * p.ScoreD8
	noCut := p.ScoreD8 <= 0
	r00, r01, r02 := tr.R[0][0], tr.R[0][1], tr.R[0][2]
	r10, r11, r12 := tr.R[1][0], tr.R[1][1], tr.R[1][2]
	r20, r21, r22 := tr.R[2][0], tr.R[2][1], tr.R[2][2]
	tx, ty, tz := tr.T[0], tr.T[1], tr.T[2]
	y = y[:len(x)]
	var sum float64
	for i := range x {
		a, b := &x[i], &y[i]
		px, py, pz := a[0], a[1], a[2]
		dx := r00*px + r01*py + r02*pz + tx - b[0]
		dy := r10*px + r11*py + r12*pz + ty - b[1]
		dz := r20*px + r21*py + r22*pz + tz - b[2]
		di := dx*dx + dy*dy + dz*dz
		if noCut || di <= d8cut2 {
			sum += 1 / (1 + di/d02)
		}
	}
	ops.AddScore(len(x))
	ops.AddRotate(len(x))
	return sum / p.LNorm
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
