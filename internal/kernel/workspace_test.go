package kernel

import (
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"
)

// TestIdleWorkspaceKeptWhileUsed pins the idle list's policy: a
// returned workspace, grown to its problem size, is handed out again
// after a sweep when a Get ran since the previous one, and released
// after a sweep with none.
func TestIdleWorkspaceKeptWhileUsed(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// A collection sweeps; with collection off afterwards, only the
	// explicit sweeps below run.
	awaitSweep(t)

	w := Get()
	w.ReserveMat(1 << 10)
	Put(w)
	releaseUnused()
	got := Get()
	if got != w {
		t.Fatal("a workspace used since the last sweep was not handed out again")
	}
	if cap(got.Mat) < 1<<10 {
		t.Errorf("idle workspace lost its buffers: cap(Mat) = %d", cap(got.Mat))
	}
	Put(got)
	releaseUnused() // keeps it: Get ran since the last sweep
	releaseUnused() // releases it: no Get since
	if got = Get(); got == w {
		t.Error("a workspace idle for a whole sweep was not released")
	}
	Put(got)
}

// awaitSweep marks the idle list used, runs a collection and waits for
// the sweep it triggers to clear the mark.
func awaitSweep(t *testing.T) {
	t.Helper()
	idle.Lock()
	idle.used = true
	idle.Unlock()
	runtime.GC()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		idle.Lock()
		swept := !idle.used
		idle.Unlock()
		if swept {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no sweep after a collection")
		}
	}
}

// TestIdleListBounded checks that Put keeps at most GOMAXPROCS idle
// workspaces and that concurrent Get/Put never hand one workspace to two
// holders (run with -race).
func TestIdleListBounded(t *testing.T) {
	const workers, rounds = 8, 200
	var (
		mu   sync.Mutex
		held = map[*Workspace]bool{}
		wg   sync.WaitGroup
	)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				w := Get()
				mu.Lock()
				if held[w] {
					t.Error("workspace handed out twice")
				}
				held[w] = true
				mu.Unlock()
				w.ReservePairs(8)
				mu.Lock()
				delete(held, w)
				mu.Unlock()
				Put(w)
			}
		}()
	}
	wg.Wait()
	idle.Lock()
	n := len(idle.ws)
	idle.Unlock()
	if max := runtime.GOMAXPROCS(0); n > max {
		t.Errorf("%d idle workspaces kept, want at most GOMAXPROCS = %d", n, max)
	}
}
