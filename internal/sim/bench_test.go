package sim

import "testing"

// BenchmarkHandoff measures one rendezvous round trip: two processes
// ping-pong over a pair of Chans, so each iteration is two blocks, two
// unblocks and four process switches through the engine.
func BenchmarkHandoff(b *testing.B) {
	e := NewEngine()
	ping, pong := NewChan("ping"), NewChan("pong")
	e.Spawn("a", func(p *Process) {
		for i := 0; i < b.N; i++ {
			ping.Send(p, nil)
			pong.Recv(p)
		}
	})
	e.Spawn("b", func(p *Process) {
		for i := 0; i < b.N; i++ {
			ping.Recv(p)
			pong.Send(p, nil)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkWait measures one Wait: 48 processes (the slave count of a
// full SCC farm) each charge distinct durations, so every iteration is
// one event push, one pop from a 48-deep heap and two process switches.
func BenchmarkWait(b *testing.B) {
	const procs = 48
	e := NewEngine()
	for k := 0; k < procs; k++ {
		d := float64(k+1) * 1e-3
		n := b.N / procs
		if k < b.N%procs {
			n++
		}
		e.Spawn("w", func(p *Process) {
			for i := 0; i < n; i++ {
				p.Wait(d)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
