package mesh

import (
	"testing"

	"plus/internal/sim"
)

// BenchmarkMeshSend measures the full message path: pooled alloc,
// route, typed delivery event, recycle.
func BenchmarkMeshSend(b *testing.B) {
	b.ReportAllocs()
	eng := sim.NewEngine()
	m := New(eng, DefaultConfig(4, 4))
	drain := PortFunc(func(p *Msg) { m.FreeMsg(p) })
	for n := NodeID(0); int(n) < m.Nodes(); n++ {
		m.Attach(n, drain)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Send(0, 15, 3, m.AllocMsg())
		eng.Run()
	}
}

// TestSendAllocFree pins the message path — AllocMsg, Send (with the
// contention model on), typed delivery, FreeMsg — at zero allocations
// once the pool and the event queue are warm. This is the regression
// guard for reintroducing a per-message closure or payload copy.
func TestSendAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(4, 4)
	cfg.Contention = true
	m := New(eng, cfg)
	drain := PortFunc(func(p *Msg) { m.FreeMsg(p) })
	for n := NodeID(0); int(n) < m.Nodes(); n++ {
		m.Attach(n, drain)
	}
	// Warm the pool and event queue.
	for i := 0; i < 64; i++ {
		m.Send(0, NodeID(1+i%15), 4, m.AllocMsg())
	}
	eng.Run()
	avg := testing.AllocsPerRun(50, func() {
		for i := 0; i < 16; i++ {
			m.Send(NodeID(i%4), NodeID(15-i%4), 4, m.AllocMsg())
		}
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("send path allocates %v objects per run, want 0", avg)
	}
}
