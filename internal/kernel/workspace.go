// Package kernel provides the per-worker scratch workspace shared by the
// TM-align numeric kernels (geom, tmscore, seqalign, tmalign).
//
// The kernels' hot loops — the TM-score fragment search, the NW/Gotoh DP
// rows, the Kabsch superposition — all need O(n) and O(n^2) scratch.
// Allocating it per call puts hundreds of allocations on the path of a
// single pairwise comparison; a Workspace owns every buffer once and is
// reused across comparisons by the worker that holds it. Workspaces are
// not safe for concurrent use: each host worker goroutine checks one out
// of the package's idle list (Get/Put) or owns one outright.
//
// Buffer groups are segregated by kernel layer so a caller that is
// mid-flight in one layer can invoke the next without aliasing its own
// scratch: tmalign owns the Pair*/Mat buffers, tmscore.Params.SearchWS
// owns the Search* buffers, and geom/seqalign take explicit slices.
package kernel

import (
	"runtime"
	"sync"

	"rckalign/internal/geom"
	"rckalign/internal/seqalign"
)

// Workspace holds reusable kernel scratch. The zero value is ready to
// use; buffers grow geometrically and are never shrunk.
type Workspace struct {
	// PairX/PairY/PairT and the int/float companions are the tmalign
	// comparison layer's scratch: gathered aligned coordinate pairs,
	// transformed coordinates, per-pair squared distances and candidate
	// alignments.
	PairX, PairY, PairT []geom.Vec3
	R1, R2              []geom.Vec3
	Dis2                []float64
	// InvTmp holds innermost candidate alignments, InvSeed the current
	// initial alignment under refinement, InvDP the DP loop's best, and
	// InvBest the best alignment across all initials.
	InvTmp, InvSeed, InvDP, InvBest []int

	// YX/YY/YZ are the SoA (structure-of-arrays) mirror of the second
	// chain's coordinates, laid out for the fused distance+score matrix
	// fills (one contiguous stream per axis instead of strided Vec3
	// loads).
	YX, YY, YZ []float64

	// YX32/YY32/YZ32 mirror YX/YY/YZ in single precision for the opt-in
	// float32 fast path (Reserve32).
	YX32, YY32, YZ32 []float32

	// Mat is the xlen x ylen score matrix of the DP refinement loops.
	Mat []float64

	// SearchXt/SearchR1/SearchR2/SearchIAli/SearchKAli/SearchDis2 are
	// the TM-score rotation search's private scratch (tmscore.SearchWS).
	// They are distinct from the pair buffers because the search runs
	// while the comparison layer's own buffers hold live data.
	SearchXt, SearchR1, SearchR2 []geom.Vec3
	SearchIAli, SearchKAli       []int
	SearchDis2                   []float64

	// SearchMemo records the converged extension trajectories of one
	// TM-score search (reset per search); PairMemo records the alignment
	// scores and DP steps of one comparison (reset per comparison).
	// SearchKey (a bitset over the aligned pairs, sized by
	// ReserveSearch) and PairKey are their key-building scratch.
	SearchMemo         Memo[Trajectory]
	PairMemo           Memo[Replay]
	SearchKey, PairKey []int

	// nw is the worker's DP aligner (its own DP rows, move matrix and
	// Gotoh tables), created on first use via Aligner.
	nw *seqalign.Aligner
}

// Aligner returns the workspace's reusable DP aligner, creating it on
// first use.
func (w *Workspace) Aligner() *seqalign.Aligner {
	if w.nw == nil {
		w.nw = seqalign.NewAligner()
	}
	return w.nw
}

// grow returns s extended to length n, reallocating geometrically (at
// least 2x the previous capacity) so ascending problem sizes do not
// reallocate per call.
func grow[T any](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	c := 2 * cap(s)
	if c < n {
		c = n
	}
	return make([]T, n, c)
}

// ReservePairs sizes the comparison-layer buffers for chains of up to n
// residues each.
func (w *Workspace) ReservePairs(n int) {
	w.PairX = grow(w.PairX, n)
	w.PairY = grow(w.PairY, n)
	w.PairT = grow(w.PairT, n)
	w.R1 = grow(w.R1, n)
	w.R2 = grow(w.R2, n)
	w.Dis2 = grow(w.Dis2, n)
	w.InvTmp = grow(w.InvTmp, n)
	w.InvSeed = grow(w.InvSeed, n)
	w.InvDP = grow(w.InvDP, n)
	w.InvBest = grow(w.InvBest, n)
	w.YX = grow(w.YX, n)
	w.YY = grow(w.YY, n)
	w.YZ = grow(w.YZ, n)
}

// Reserve32 sizes the float32 SoA mirrors (only the float32 fast path
// pays for them).
func (w *Workspace) Reserve32(n int) {
	w.YX32 = grow(w.YX32, n)
	w.YY32 = grow(w.YY32, n)
	w.YZ32 = grow(w.YZ32, n)
}

// ReserveMat sizes the score matrix for an xlen x ylen problem.
func (w *Workspace) ReserveMat(cells int) {
	w.Mat = grow(w.Mat, cells)
}

// ReserveSearch sizes the TM-score search scratch for alignments of up
// to n pairs.
func (w *Workspace) ReserveSearch(n int) {
	w.SearchXt = grow(w.SearchXt, n)
	w.SearchR1 = grow(w.SearchR1, n)
	w.SearchR2 = grow(w.SearchR2, n)
	w.SearchIAli = grow(w.SearchIAli, n)
	w.SearchKAli = grow(w.SearchKAli, n)
	w.SearchDis2 = grow(w.SearchDis2, n)
	w.SearchKey = grow(w.SearchKey, (n+63)/64)
}

// idle holds up to GOMAXPROCS workspaces between comparisons. A
// sync.Pool keeps one per P and clears them at every collection, busy
// or not, so two busy workers built eleven workspaces in three cold
// CK34 passes, each grown from scratch, with several generations live
// at once. Here a busy worker always gets a grown workspace back. Idle
// ones are released only after a whole collection cycle passes without
// a Get, so a process that has stopped comparing does not hold them.
var idle struct {
	sync.Mutex
	ws   []*Workspace
	used bool // a Get happened since the last collection
}

func init() { watchGC() }

// gcTick is a heap object whose finalizer runs after the next
// collection. It holds a pointer so it is not batched into a tiny
// allocation, whose finalizer might never run.
type gcTick struct{ _ *int }

// watchGC calls releaseUnused after the next collection and re-arms
// itself.
func watchGC() {
	runtime.SetFinalizer(&gcTick{}, func(*gcTick) {
		releaseUnused()
		watchGC()
	})
}

// releaseUnused drops the idle workspaces unless a Get happened since
// its previous call.
func releaseUnused() {
	idle.Lock()
	defer idle.Unlock()
	if !idle.used {
		clear(idle.ws)
		idle.ws = idle.ws[:0]
	}
	idle.used = false
}

// Get checks a Workspace out of the package's idle list, or makes a new
// one. Pair it with Put once the comparison completes; a workspace that
// is never Put is simply garbage collected.
func Get() *Workspace {
	idle.Lock()
	defer idle.Unlock()
	idle.used = true
	if n := len(idle.ws); n > 0 {
		w := idle.ws[n-1]
		idle.ws[n-1] = nil
		idle.ws = idle.ws[:n-1]
		return w
	}
	return new(Workspace)
}

// Put returns a workspace to the idle list. The caller must not retain
// any slice of it afterwards.
func Put(w *Workspace) {
	idle.Lock()
	defer idle.Unlock()
	if len(idle.ws) < runtime.GOMAXPROCS(0) {
		idle.ws = append(idle.ws, w)
	}
}
