package sim

import (
	"math/rand"
	"runtime"
	"sort"
	"testing"
)

// TestEventHeapOrder drives the engine with callbacks that schedule more
// callbacks at random times from a small set (so many share a time),
// many of them already in the past. Every event must fire at its clamped time,
// max(t, Now() at Schedule), and the fire order must be a sort by
// (clamped time, schedule order).
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	e := NewEngine()
	type rec struct {
		t  float64
		id int
	}
	var scheduled, fired []rec
	var schedule func(depth int)
	schedule = func(depth int) {
		at := float64(rng.Intn(10))
		r := rec{t: max(at, e.Now()), id: len(scheduled)}
		scheduled = append(scheduled, r)
		e.Schedule(at, func() {
			if e.Now() != r.t {
				t.Errorf("event %d fired at %v, want %v", r.id, e.Now(), r.t)
			}
			fired = append(fired, r)
			if depth < 4 {
				for k := rng.Intn(4); k > 0; k-- {
					schedule(depth + 1)
				}
			}
		})
	}
	for i := 0; i < 200; i++ {
		schedule(0)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := append([]rec(nil), scheduled...)
	sort.Slice(want, func(i, j int) bool {
		if want[i].t != want[j].t {
			return want[i].t < want[j].t
		}
		return want[i].id < want[j].id
	})
	if len(fired) != len(want) {
		t.Fatalf("fired %d events, scheduled %d", len(fired), len(want))
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fire #%d = %+v, want %+v", i, fired[i], want[i])
		}
	}
}

// TestDeadlockReleasesProcesses: a deadlocked run must not leave its
// blocked processes suspended. Each is unwound (its defers run), marked
// killed and done, and no goroutine outlives the run.
func TestDeadlockReleasesProcesses(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		e := NewEngine()
		c := NewChan("never")
		unwound := false
		p := e.Spawn("stuck", func(p *Process) {
			defer func() { unwound = true }()
			c.Recv(p)
			t.Error("deadlocked process resumed past its receive")
		})
		if _, ok := e.Run().(*DeadlockError); !ok {
			t.Fatal("want DeadlockError")
		}
		if !unwound || !p.Done() || !p.Killed() {
			t.Fatalf("after deadlock: unwound=%v done=%v killed=%v, want all true", unwound, p.Done(), p.Killed())
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: %d before 100 deadlocked runs, %d after", before, after)
	}
}

// TestProcessPanicSurfacesFromRun: a panic in a process body reaches
// Run's caller, where it can be recovered, whether the body panics on
// its first resume or after it has yielded.
func TestProcessPanicSurfacesFromRun(t *testing.T) {
	for _, waitFirst := range []bool{false, true} {
		e := NewEngine()
		e.Spawn("bad", func(p *Process) {
			if waitFirst {
				p.Wait(1)
			}
			panic("boom")
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			e.Run()
			return nil
		}()
		if got != "boom" {
			t.Errorf("waitFirst=%v: recovered %v from Run, want boom", waitFirst, got)
		}
	}
}
