package seqalign

import (
	"rckalign/internal/costmodel"
)

// LocalResult describes the best local alignment found by AlignLocal.
type LocalResult struct {
	// Score is the optimal local alignment score (>= 0).
	Score float64
	// Start1/End1 and Start2/End2 bound the aligned regions
	// (half-open: [Start, End)). Zero-length when Score == 0.
	Start1, End1 int
	Start2, End2 int
	// Pairs lists the aligned (i, j) positions in order.
	Pairs [][2]int
}

// AlignLocal is Smith-Waterman local alignment with linear gap penalty
// gap (<= 0): the highest-scoring pair of substrings under the scorer.
// Used for motif/fragment search over structures' profile scores; kept
// exact (validated against exhaustive search in tests).
func (a *Aligner) AlignLocal(len1, len2 int, score Scorer, gap float64, ops *costmodel.Counter) LocalResult {
	cols := len2 + 1
	n := (len1 + 1) * cols
	a.val = growSlice(a.val, n)
	val := a.val
	for j := 0; j <= len2; j++ {
		val[j] = 0
	}
	for i := 0; i <= len1; i++ {
		val[i*cols] = 0
	}
	// dir: 0 stop, else the move into the cell. Reused across calls
	// without clearing: the fill writes every interior cell and the
	// traceback never reads border cells.
	a.dir = growSlice(a.dir, n)
	dir := a.dir

	best := 0.0
	bi, bj := 0, 0
	for i := 1; i <= len1; i++ {
		row := i * cols
		prev := row - cols
		for j := 1; j <= len2; j++ {
			d := val[prev+j-1] + score(i-1, j-1)
			u := val[prev+j] + gap
			l := val[row+j-1] + gap
			v, dd := 0.0, int8(0)
			if d > v {
				v, dd = d, moveDiag
			}
			if u > v {
				v, dd = u, moveUp
			}
			if l > v {
				v, dd = l, moveLeft
			}
			val[row+j] = v
			dir[row+j] = dd
			if v > best {
				best = v
				bi, bj = i, j
			}
		}
	}
	ops.AddDP(len1 * len2)

	res := LocalResult{Score: best}
	if best == 0 {
		return res
	}
	i, j := bi, bj
	for i > 0 && j > 0 && dir[i*cols+j] != 0 {
		switch dir[i*cols+j] {
		case moveDiag:
			res.Pairs = append(res.Pairs, [2]int{i - 1, j - 1})
			i--
			j--
		case moveUp:
			i--
		default:
			j--
		}
	}
	// Pairs were collected backwards.
	for l, r := 0, len(res.Pairs)-1; l < r; l, r = l+1, r-1 {
		res.Pairs[l], res.Pairs[r] = res.Pairs[r], res.Pairs[l]
	}
	res.Start1, res.End1 = i, bi
	res.Start2, res.End2 = j, bj
	return res
}
