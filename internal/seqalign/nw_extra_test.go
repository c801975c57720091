package seqalign

import (
	"math/rand"
	"testing"

	"rckalign/internal/costmodel"
)

// TestGrowSliceGeometric pins the amortised-growth contract of the DP
// scratch: when a buffer must be reallocated, capacity at least doubles,
// and a request that fits the existing capacity never reallocates.
func TestGrowSliceGeometric(t *testing.T) {
	a := NewAligner()
	a.grow(10, 10) // 121 cells
	c1 := cap(a.dir)
	if c1 < 121 {
		t.Fatalf("cap after grow(10,10) = %d, want >= 121", c1)
	}
	// One cell over capacity: geometric growth must at least double,
	// not allocate the exact new size.
	a.grow(11, 11) // 144 cells — under 2*121
	if cap(a.dir) < 2*c1 {
		t.Errorf("cap after grow(11,11) = %d, want >= %d (geometric doubling)", cap(a.dir), 2*c1)
	}
	// A smaller request reuses the buffer.
	c2 := cap(a.dir)
	a.grow(5, 5)
	if cap(a.dir) != c2 {
		t.Errorf("grow(5,5) reallocated: cap %d -> %d", c2, cap(a.dir))
	}
	if len(a.dir) != 36 || len(a.val) != 12 {
		t.Errorf("grow(5,5) lengths = %d/%d, want 36 moves and two 6-value rows", len(a.dir), len(a.val))
	}

	// A jump far beyond double allocates the requested size.
	s := growSlice([]float64(nil), 7)
	if len(s) != 7 || cap(s) < 7 {
		t.Fatalf("growSlice(nil, 7): len %d cap %d", len(s), cap(s))
	}
	s = growSlice(s, 1000)
	if len(s) != 1000 || cap(s) < 1000 {
		t.Errorf("growSlice to 1000: len %d cap %d", len(s), cap(s))
	}
}

// TestAlignerReuseNoAllocs is the allocation regression for the shared
// scratch: once an Aligner has seen its largest problem, further calls
// of any variant at that size or below must not allocate.
func TestAlignerReuseNoAllocs(t *testing.T) {
	a := NewAligner()
	const len1, len2 = 90, 70
	score := func(i, j int) float64 {
		if (i+j)%3 == 0 {
			return 1
		}
		return -0.2
	}
	mat := make([]float64, len1*len2)
	for i := 0; i < len1; i++ {
		for j := 0; j < len2; j++ {
			mat[i*len2+j] = score(i, j)
		}
	}
	invmap := make([]int, len2)

	// Warm every variant so all lazily-sized buffers exist. AlignLocal is
	// exempt from the zero-alloc contract: it returns a freshly-built
	// Pairs slice by design.
	a.Align(len1, len2, score, -0.6, invmap, nil)
	a.AlignMatrix(len1, len2, mat, -0.6, invmap, nil)
	a.AlignAffine(len1, len2, score, -1.0, -0.1, invmap, nil)

	cases := []struct {
		name string
		run  func()
	}{
		{"Align", func() { a.Align(len1, len2, score, -0.6, invmap, nil) }},
		{"AlignSmaller", func() { a.Align(30, 20, score, -0.6, invmap[:20], nil) }},
		{"AlignMatrix", func() { a.AlignMatrix(len1, len2, mat, -0.6, invmap, nil) }},
		{"AlignAffine", func() { a.AlignAffine(len1, len2, score, -1.0, -0.1, invmap, nil) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(10, tc.run); allocs != 0 {
			t.Errorf("%s on a warm Aligner: %.1f allocs/run, want 0", tc.name, allocs)
		}
	}
}

// TestGaplessThreadingZeroVisit pins the documented contract: when
// minOverlap exceeds the shorter chain, no diagonal can satisfy it and
// the callback is never invoked.
func TestGaplessThreadingZeroVisit(t *testing.T) {
	cases := []struct{ len1, len2, minOverlap int }{
		{5, 10, 6},  // minOverlap > len1
		{10, 5, 6},  // minOverlap > len2
		{3, 3, 4},   // minOverlap > both
		{0, 10, 1},  // empty chain 1
		{10, 0, 1},  // empty chain 2
		{7, 9, 100}, // far beyond both
	}
	for _, tc := range cases {
		visits := 0
		GaplessThreading(tc.len1, tc.len2, tc.minOverlap, func(k, lo, hi int) { visits++ })
		if visits != 0 {
			t.Errorf("GaplessThreading(%d, %d, %d): %d visits, want 0",
				tc.len1, tc.len2, tc.minOverlap, visits)
		}
	}
	// Boundary: minOverlap exactly min(len1, len2) yields exactly one
	// full-overlap diagonal per offset that fits.
	visits := 0
	GaplessThreading(5, 5, 5, func(k, lo, hi int) {
		visits++
		if k != 0 || lo != 0 || hi != 5 {
			t.Errorf("full-overlap visit = (%d, %d, %d), want (0, 0, 5)", k, lo, hi)
		}
	})
	if visits != 1 {
		t.Errorf("GaplessThreading(5, 5, 5): %d visits, want 1", visits)
	}
}

// TestAlignMatrixMatchesAlign verifies the dense-matrix fast path is a
// pure re-expression of Align: identical alignments and identical DP
// charges on random score matrices, with and without a gap penalty,
// including degenerate empty dimensions.
func TestAlignMatrixMatchesAlign(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dims := []struct{ len1, len2 int }{
		{1, 1}, {1, 7}, {7, 1}, {13, 17}, {40, 40}, {64, 31},
		{0, 5}, {5, 0}, {0, 0},
	}
	for _, gapOpen := range []float64{0, -0.6, -2.5} {
		for _, d := range dims {
			mat := make([]float64, d.len1*d.len2)
			for i := range mat {
				mat[i] = rng.NormFloat64()
			}
			score := func(i, j int) float64 { return mat[i*d.len2+j] }

			a1, a2 := NewAligner(), NewAligner()
			inv1 := make([]int, d.len2)
			inv2 := make([]int, d.len2)
			var ops1, ops2 costmodel.Counter
			a1.Align(d.len1, d.len2, score, gapOpen, inv1, &ops1)
			a2.AlignMatrix(d.len1, d.len2, mat, gapOpen, inv2, &ops2)

			for j := range inv1 {
				if inv1[j] != inv2[j] {
					t.Fatalf("dims %dx%d gap %g: invmap differs at j=%d: %d vs %d",
						d.len1, d.len2, gapOpen, j, inv1[j], inv2[j])
				}
			}
			if ops1.DPCells != ops2.DPCells {
				t.Errorf("dims %dx%d gap %g: DP charge differs: %d vs %d",
					d.len1, d.len2, gapOpen, ops1.DPCells, ops2.DPCells)
			}
			if !IsMonotonic(inv1, d.len1) {
				t.Errorf("dims %dx%d gap %g: non-monotonic alignment", d.len1, d.len2, gapOpen)
			}
		}
	}
}

// FuzzAlign feeds arbitrary score matrices and gap penalties through the
// global DP and asserts the structural invariant every caller relies on:
// the resulting invmap is a valid monotonic alignment.
func FuzzAlign(f *testing.F) {
	f.Add(int64(1), 8, 6, -0.6)
	f.Add(int64(2), 1, 1, 0.0)
	f.Add(int64(3), 20, 3, -3.0)
	f.Add(int64(4), 5, 40, 0.5) // positive "penalty" must still align validly
	f.Fuzz(func(t *testing.T, seed int64, len1, len2 int, gapOpen float64) {
		if len1 < 0 || len2 < 0 || len1 > 80 || len2 > 80 {
			t.Skip()
		}
		if gapOpen != gapOpen || gapOpen < -1e6 || gapOpen > 1e6 {
			t.Skip() // NaN/extreme penalties are out of contract
		}
		rng := rand.New(rand.NewSource(seed))
		mat := make([]float64, len1*len2)
		for i := range mat {
			mat[i] = rng.NormFloat64() * 3
		}
		a := NewAligner()
		invmap := make([]int, len2)
		a.AlignMatrix(len1, len2, mat, gapOpen, invmap, nil)
		if !IsMonotonic(invmap, len1) {
			t.Fatalf("AlignMatrix(%dx%d, gap %g) produced a non-monotonic invmap: %v",
				len1, len2, gapOpen, invmap)
		}
		inv2 := make([]int, len2)
		a.Align(len1, len2, func(i, j int) float64 { return mat[i*len2+j] }, gapOpen, inv2, nil)
		for j := range invmap {
			if invmap[j] != inv2[j] {
				t.Fatalf("Align and AlignMatrix disagree at j=%d: %d vs %d", j, inv2[j], invmap[j])
			}
		}
	})
}

// referenceNWDP is TM-align's NWDP_TM as the reference writes it: the
// full value matrix, a diagonal flag per cell, and a traceback that
// recomputes the two gap candidates from the stored values.
func referenceNWDP(len1, len2 int, mat []float64, gapOpen float64) []int {
	cols := len2 + 1
	val := make([]float64, (len1+1)*cols)
	path := make([]bool, (len1+1)*cols)
	for i := 1; i <= len1; i++ {
		for j := 1; j <= len2; j++ {
			d := val[(i-1)*cols+j-1] + mat[(i-1)*len2+j-1]
			h := val[(i-1)*cols+j]
			if path[(i-1)*cols+j] {
				h += gapOpen
			}
			v := val[i*cols+j-1]
			if path[i*cols+j-1] {
				v += gapOpen
			}
			if d >= h && d >= v {
				path[i*cols+j] = true
				val[i*cols+j] = d
			} else if v >= h {
				val[i*cols+j] = v
			} else {
				val[i*cols+j] = h
			}
		}
	}
	invmap := make([]int, len2)
	for j := range invmap {
		invmap[j] = -1
	}
	i, j := len1, len2
	for i > 0 && j > 0 {
		if path[i*cols+j] {
			invmap[j-1] = i - 1
			i--
			j--
			continue
		}
		h := val[(i-1)*cols+j]
		if path[(i-1)*cols+j] {
			h += gapOpen
		}
		v := val[i*cols+j-1]
		if path[i*cols+j-1] {
			v += gapOpen
		}
		if v >= h {
			j--
		} else {
			i--
		}
	}
	return invmap
}

// TestReusedAlignerMatchesReference runs one Aligner through problems of
// changing shape, so every call starts on the previous call's rows and
// moves, and checks Align and AlignMatrix against the full-matrix
// reference. Scores are drawn from a few values so ties, where the
// traceback's tie-breaking decides, are common.
func TestReusedAlignerMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := NewAligner()
	levels := []float64{-1, 0, 0.25, 0.5, 1}
	for k := 0; k < 300; k++ {
		len1, len2 := 1+rng.Intn(40), 1+rng.Intn(40)
		gapOpen := []float64{0, -0.6, -1}[rng.Intn(3)]
		mat := make([]float64, len1*len2)
		for i := range mat {
			mat[i] = levels[rng.Intn(len(levels))]
		}
		want := referenceNWDP(len1, len2, mat, gapOpen)
		got := make([]int, len2)
		if k%2 == 0 {
			a.AlignMatrix(len1, len2, mat, gapOpen, got, nil)
		} else {
			a.Align(len1, len2, func(i, j int) float64 { return mat[i*len2+j] }, gapOpen, got, nil)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("problem %d (%dx%d, gap %g): invmap %v, reference %v", k, len1, len2, gapOpen, got, want)
			}
		}
	}
}
