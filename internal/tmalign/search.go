package tmalign

import (
	"math"

	"rckalign/internal/costmodel"
	"rckalign/internal/geom"
	"rckalign/internal/kernel"
)

// A comparison asks for the same work more than once: several initial
// alignments refine into the same DP alignments, initialFragment
// re-threads diagonals initialGapless already scored, and DP loops
// revisit alignments. Each step below is a pure function of its key
// within one comparison, so it is memoised in the workspace's PairMemo
// (reset per comparison). A repeat returns the recorded result and adds
// the exact op delta the step first charged, so results and the
// simulated cost are the same as recomputing.

// PairMemo key tags: the first word of every key names the step.
const (
	memoSearch = iota // detailedSearch of an alignment
	memoFast          // scoreFast of an alignment
	memoDP            // dpStep from a transform and gap-open penalty
)

// alignmentKey builds the PairMemo key of a step on invmap.
func (c *ctx) alignmentKey(tag int, invmap []int) []int {
	c.w.PairKey = kernel.AppendRuns(append(c.w.PairKey[:0], tag), invmap)
	return c.w.PairKey
}

// recall looks key up in the comparison memo, inserting it when absent.
// On a repeat it charges the recorded op delta and reports true; the
// recorded value is then PairMemo.Val(e).
func (c *ctx) recall(key []int) (e int, repeat bool) {
	e, repeat = c.w.PairMemo.Find(key)
	if repeat {
		c.ops.Add(c.w.PairMemo.Val(e).Ops)
	}
	return e, repeat
}

// remember records v, and the ops charged since before, as entry e's
// value.
func (c *ctx) remember(e int, v kernel.Replay, before costmodel.Counter) {
	v.Ops = c.ops.Sub(before)
	*c.w.PairMemo.Val(e) = v
}

// detailedSearch gathers the aligned pairs of invmap and runs the
// TM-score rotation search over them (TM-align's detailed_search with the
// configured simplify step). Returns the TM-score (search normalization)
// and the rotation achieving it.
func (c *ctx) detailedSearch(invmap []int) (float64, geom.Transform) {
	e, repeat := c.recall(c.alignmentKey(memoSearch, invmap))
	if repeat {
		v := c.w.PairMemo.Val(e)
		return v.Score, v.T
	}
	before := *c.ops
	tm, tr := 0.0, geom.IdentityTransform()
	if n := alignedPairs(c.x, c.y, invmap, c.xtm, c.ytm); n > 0 {
		tm, tr = c.sp.SearchWS(c.w, c.xtm[:n], c.ytm[:n], c.opt.SimplifyStep, c.ops)
	}
	c.remember(e, kernel.Replay{Score: tm, T: tr}, before)
	return tm, tr
}

// scoreFast is TM-align's get_score_fast: a cheap three-round estimate of
// an alignment's TM-score used to rank candidate alignments (the returned
// value is un-normalised; only comparisons against other scoreFast values
// are meaningful).
func (c *ctx) scoreFast(invmap []int) float64 {
	e, repeat := c.recall(c.alignmentKey(memoFast, invmap))
	if repeat {
		return c.w.PairMemo.Val(e).Score
	}
	before := *c.ops
	s := c.fastScore(invmap)
	c.remember(e, kernel.Replay{Score: s}, before)
	return s
}

// fastScore computes scoreFast without the memo.
func (c *ctx) fastScore(invmap []int) float64 {
	n := 0
	for j, i := range invmap {
		if i >= 0 {
			c.r1[n] = c.x[i]
			c.r2[n] = c.y[j]
			n++
		}
	}
	if n < 3 {
		return 0
	}
	xtm := c.xtm[:n]
	ytm := c.ytm[:n]
	copy(xtm, c.r1[:n])
	copy(ytm, c.r2[:n])

	d02 := c.sp.D0 * c.sp.D0
	d002 := c.sp.D0Search * c.sp.D0Search
	dis2 := c.dis2[:n]

	// scorePass rotates xtm under tr and accumulates the TM sum, caching
	// squared distances; the transform is hoisted into scalars in
	// Apply/Dist2 evaluation order (bit-identical to the method chain).
	scorePass := func(tr geom.Transform) float64 {
		r00, r01, r02 := tr.R[0][0], tr.R[0][1], tr.R[0][2]
		r10, r11, r12 := tr.R[1][0], tr.R[1][1], tr.R[1][2]
		r20, r21, r22 := tr.R[2][0], tr.R[2][1], tr.R[2][2]
		tx, ty, tz := tr.T[0], tr.T[1], tr.T[2]
		s := 0.0
		for k := 0; k < n; k++ {
			a, b := &xtm[k], &ytm[k]
			px, py, pz := a[0], a[1], a[2]
			dx := r00*px + r01*py + r02*pz + tx - b[0]
			dy := r10*px + r11*py + r12*pz + ty - b[1]
			dz := r20*px + r21*py + r22*pz + tz - b[2]
			di := dx*dx + dy*dy + dz*dz
			dis2[k] = di
			s += 1 / (1 + di/d02)
		}
		c.ops.AddScore(n)
		c.ops.AddRotate(n)
		return s
	}

	tr, _ := geom.Superpose(c.r1[:n], c.r2[:n])
	c.ops.AddKabsch(n)
	score := scorePass(tr)

	// Round 2: re-fit on pairs within d0Search.
	refit := func(cut2 float64) (float64, bool) {
		j := 0
		for cutoff := cut2; ; cutoff += 0.5 {
			j = 0
			for k := 0; k < n; k++ {
				if dis2[k] <= cutoff {
					c.r1[j] = xtm[k]
					c.r2[j] = ytm[k]
					j++
				}
			}
			if j >= 3 || n <= 3 {
				break
			}
		}
		if j == n {
			return score, false // nothing filtered; no improvement possible
		}
		if j < 3 {
			return score, false
		}
		tr, _ := geom.Superpose(c.r1[:j], c.r2[:j])
		c.ops.AddKabsch(j)
		return scorePass(tr), true
	}

	if s2, improvedPossible := refit(d002); improvedPossible {
		if s2 > score {
			score = s2
		}
		if s3, _ := refit(d002 + 1); s3 > score {
			score = s3
		}
	}
	return score
}

// dpIter is TM-align's DP_iter: starting from an alignment and its
// rotation, alternately (a) build a score matrix from the rotated
// inter-chain distances and run NWDP, and (b) re-search the rotation for
// the new alignment, keeping the best TM-score seen. Both gap-opening
// settings (-0.6 and 0) are explored.
func (c *ctx) dpIter(invmap0 []int, tr geom.Transform, maxIter int) (float64, geom.Transform, []int) {
	bestTM := -1.0
	bestTr := tr
	best := c.w.InvDP[:c.ylen]
	copy(best, invmap0)

	for _, gapOpen := range [2]float64{-0.6, 0} {
		cur := tr
		tmOld := 0.0
		for iter := 0; iter < maxIter; iter++ {
			c.dpStep(cur, gapOpen)
			tm, trNew := c.detailedSearch(c.invTmp)
			if tm > bestTM {
				bestTM = tm
				bestTr = trNew
				copy(best, c.invTmp)
			}
			cur = trNew
			if iter > 0 && abs(tm-tmOld) < 1e-6 {
				break
			}
			tmOld = tm
		}
	}
	return bestTM, bestTr, best
}

// dpStep is one refinement step of dpIter: the score matrix of the
// chains under cur, aligned by NWDP with the given gap-open penalty into
// c.invTmp. The step reads nothing but cur and gapOpen, so it is
// memoised on their bits. cur is detailedSearch's transform for the
// step's source alignment, so a repeated (alignment, gap-open) step
// always hits.
func (c *ctx) dpStep(cur geom.Transform, gapOpen float64) {
	k := append(c.w.PairKey[:0], memoDP, int(math.Float64bits(gapOpen)))
	for _, row := range cur.R {
		for _, v := range row {
			k = append(k, int(math.Float64bits(v)))
		}
	}
	for _, v := range cur.T {
		k = append(k, int(math.Float64bits(v)))
	}
	c.w.PairKey = k
	e, repeat := c.recall(k)
	if repeat {
		kernel.DecodeRuns(c.invTmp[:0], c.w.PairMemo.Data(e))
		return
	}
	before := *c.ops
	xt := c.xt[:c.xlen]
	cur.ApplyAll(xt, c.x)
	c.ops.AddRotate(c.xlen)
	c.fillDistMatrix(xt, c.sp.D0*c.sp.D0, false)
	c.ops.AddScore(c.xlen * c.ylen)
	c.nw.AlignMatrix(c.xlen, c.ylen, c.scoreMat, gapOpen, c.invTmp, c.ops)
	c.remember(e, kernel.Replay{}, before)
	c.w.PairKey = kernel.AppendRuns(c.w.PairKey[:0], c.invTmp)
	c.w.PairMemo.SetData(e, c.w.PairKey)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// fillDistMatrix fills c.scoreMat with 1/(1+d^2/d2) for every (i, j)
// pair of the rotated chain xt against the fixed chain, reading the
// fixed chain through its SoA mirror (one contiguous stream per axis).
// With ssBonus, pairs with matching secondary structure score +0.5
// (get_initial_ssplus's mixed matrix). The distance arithmetic follows
// Vec3.Dist2's evaluation order, so the default float64 fill is
// bit-identical to the naive xt[i].Dist2(y[j]) loop; the opt-in float32
// path trades that exactness for narrower arithmetic.
func (c *ctx) fillDistMatrix(xt []geom.Vec3, d2 float64, ssBonus bool) {
	if c.opt.Float32 {
		c.fillDistMatrix32(xt, d2, ssBonus)
		return
	}
	ylen := c.ylen
	yx := c.w.YX[:ylen]
	yy := c.w.YY[:ylen]
	yz := c.w.YZ[:ylen]
	for i := 0; i < c.xlen; i++ {
		p := &xt[i]
		px, py, pz := p[0], p[1], p[2]
		row := c.scoreMat[i*ylen : i*ylen+ylen]
		if ssBonus {
			s1 := c.sec1[i]
			sec2 := c.sec2
			for j := range row {
				dx, dy, dz := px-yx[j], py-yy[j], pz-yz[j]
				di := dx*dx + dy*dy + dz*dz
				s := 1 / (1 + di/d2)
				if s1 == sec2[j] {
					s += 0.5
				}
				row[j] = s
			}
		} else {
			for j := range row {
				dx, dy, dz := px-yx[j], py-yy[j], pz-yz[j]
				di := dx*dx + dy*dy + dz*dz
				row[j] = 1 / (1 + di/d2)
			}
		}
	}
}

// fillDistMatrix32 is the float32 fast path of fillDistMatrix: distances
// and scores are computed in single precision and widened on store. Only
// the DP score matrix is affected — superposition and TM-scores stay
// float64 — so drift is bounded to near-tied alignment choices.
func (c *ctx) fillDistMatrix32(xt []geom.Vec3, d2 float64, ssBonus bool) {
	ylen := c.ylen
	yx := c.w.YX32[:ylen]
	yy := c.w.YY32[:ylen]
	yz := c.w.YZ32[:ylen]
	d232 := float32(d2)
	for i := 0; i < c.xlen; i++ {
		p := &xt[i]
		px, py, pz := float32(p[0]), float32(p[1]), float32(p[2])
		row := c.scoreMat[i*ylen : i*ylen+ylen]
		if ssBonus {
			s1 := c.sec1[i]
			sec2 := c.sec2
			for j := range row {
				dx, dy, dz := px-yx[j], py-yy[j], pz-yz[j]
				di := dx*dx + dy*dy + dz*dz
				s := 1 / (1 + di/d232)
				if s1 == sec2[j] {
					s += 0.5
				}
				row[j] = float64(s)
			}
		} else {
			for j := range row {
				dx, dy, dz := px-yx[j], py-yy[j], pz-yz[j]
				di := dx*dx + dy*dy + dz*dz
				row[j] = float64(1 / (1 + di/d232))
			}
		}
	}
}

// alignedPairs copies the aligned coordinate pairs of invmap into dstX,
// dstY and returns the pair count.
func alignedPairs(x, y []geom.Vec3, invmap []int, dstX, dstY []geom.Vec3) int {
	n := 0
	for j, i := range invmap {
		if i >= 0 {
			dstX[n] = x[i]
			dstY[n] = y[j]
			n++
		}
	}
	return n
}
