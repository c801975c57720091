package kernel

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

func TestMemoFindInsertsThenHits(t *testing.T) {
	var m Memo[Replay]
	rng := rand.New(rand.NewSource(1))
	keys := make([][]int, 2000) // several table doublings
	for i := range keys {
		k := make([]int, 1+rng.Intn(6))
		for j := range k {
			k[j] = rng.Intn(5) - 1
		}
		keys[i] = k
	}
	want := map[string]int{}
	for _, k := range keys {
		e, seen := m.Find(k)
		id := fmt.Sprint(k)
		if prev, ok := want[id]; ok {
			if !seen || e != prev {
				t.Fatalf("key %v: Find = %d,%v, want earlier entry %d", k, e, seen, prev)
			}
			continue
		}
		if seen {
			t.Fatalf("new key %v reported as seen (entry %d)", k, e)
		}
		want[id] = e
		m.Val(e).Score = float64(e + 1)
	}
	if len(m.ents) != len(want) {
		t.Fatalf("%d entries, want %d distinct keys", len(m.ents), len(want))
	}
	for _, k := range keys {
		e, seen := m.Find(k)
		if !seen || m.Val(e).Score != float64(e+1) {
			t.Fatalf("key %v: entry %d seen=%v score=%v", k, e, seen, m.Val(e).Score)
		}
	}
}

func TestMemoResetForgetsEverything(t *testing.T) {
	var m Memo[Replay]
	k := []int{3, 1, 4}
	e, _ := m.Find(k)
	m.Val(e).Score = 1.5
	m.SetData(e, []int{9, 8})
	m.Reset()
	if len(m.ents) != 0 {
		t.Fatalf("%d entries after Reset", len(m.ents))
	}
	e, seen := m.Find(k)
	if seen || m.Val(e).Score != 0 || len(m.Data(e)) != 0 {
		t.Fatalf("after Reset: seen=%v value=%+v data=%v", seen, *m.Val(e), m.Data(e))
	}

	// A wrapped generation stamp must not resurrect stale slots.
	m.gen = ^uint32(0)
	m.Reset()
	if _, seen := m.Find(k); seen {
		t.Fatal("key survived a generation wrap")
	}
}

func TestMemoComparesWholeKeys(t *testing.T) {
	// Give key a's entry the hash of key b: b's lookup then probes a's
	// slot with an equal hash and must still not match it.
	var m Memo[Replay]
	a, b := []int{1, 2, 3}, []int{7, 7}
	e, _ := m.Find(a)
	m.Val(e).Score = 42
	m.ents[e].hash = hashKey(b)
	m.grow() // re-slot the entry under its forged hash
	eb, seen := m.Find(b)
	if seen || eb == e {
		t.Fatalf("key %v aliased entry %d of key %v", b, e, a)
	}
}

func TestMemoData(t *testing.T) {
	var m Memo[Replay]
	e1, _ := m.Find([]int{1})
	e2, _ := m.Find([]int{2})
	m.SetData(e2, []int{5, 6, 7})
	m.SetData(e1, []int{-1})
	if got := m.Data(e1); !slices.Equal(got, []int{-1}) {
		t.Errorf("Data(e1) = %v", got)
	}
	if got := m.Data(e2); !slices.Equal(got, []int{5, 6, 7}) {
		t.Errorf("Data(e2) = %v", got)
	}
}

func TestWarmMemoAllocatesNothing(t *testing.T) {
	var m Memo[Replay]
	keys := [][]int{{1, 2}, {3}, {4, 5, 6}, {-1, 2, 0, 7}}
	use := func() {
		m.Reset()
		for i, k := range keys {
			e, _ := m.Find(k)
			m.SetData(e, keys[len(keys)-1-i])
		}
	}
	use()
	if allocs := testing.AllocsPerRun(10, use); allocs != 0 {
		t.Errorf("warm memo allocates %v times per use", allocs)
	}
}

// TestAppendRunsRoundTrips checks DecodeRuns inverts AppendRuns.
func TestAppendRunsRoundTrips(t *testing.T) {
	cases := [][]int{
		nil,
		{0, 1, 2, 3},             // one ascending run
		{-1, -1, 0, 1, -1, 5, 6}, // alignment map with gaps
		{-1, 0},                  // a gap directly before residue 0
		{2, 3, 7, 8, 9, 20},      // sorted index set
		{4, 4, 3},                // neither rule continues
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		v := make([]int, rng.Intn(12))
		for j := range v {
			v[j] = rng.Intn(4) - 1
		}
		cases = append(cases, v)
	}
	for _, v := range cases {
		enc := AppendRuns([]int{99}, v)
		if enc[0] != 99 {
			t.Fatalf("AppendRuns overwrote the prefix: %v", enc)
		}
		if got := DecodeRuns(nil, enc[1:]); !slices.Equal(got, v) {
			t.Errorf("decode(AppendRuns(%v)) = %v", v, got)
		}
	}
	if got := AppendRuns(nil, []int{-1, -1, 0, 1, 2, -1}); !slices.Equal(got, []int{-1, 2, 0, 3, -1, 1}) {
		t.Errorf("alignment encoding = %v", got)
	}
}
