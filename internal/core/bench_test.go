package core

import (
	"testing"

	"plus/internal/mesh"
	"plus/internal/proc"
)

// benchSyncLoop runs one thread per node hammering a remote counter
// with delayed fetch-and-adds and verify polls — the workload where
// the serial engine's direct clock-advance fast paths (yield after a
// sync issue, the verify poll, the re-dispatch after a remote reply)
// pay or don't. Spend is dominated by park/wake machinery when the
// fast paths miss, so this is the focused regression benchmark for
// them.
func benchSyncLoop(b *testing.B, mode proc.Mode, switchCost int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(2, 2)
		cfg.Mode = mode
		cfg.SwitchCost = 40
		if mode == proc.RunToBlock {
			cfg.SwitchCost = 0
		}
		m, err := NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ctr := m.Alloc(3, 1)
		for n := 0; n < 4; n++ {
			m.Spawn(mesh.NodeID(n), func(th *proc.Thread) {
				for k := 0; k < 200; k++ {
					h := th.Fadd(ctr, 1)
					th.Compute(5)
					th.Verify(h)
				}
			})
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
		if got := m.Peek(ctr); got != 800 {
			b.Fatalf("counter = %d, want 800", got)
		}
	}
}

// BenchmarkSyncVerifyRunToBlock exercises the verify-poll and remote
// waits in the paper's run-to-block mode.
func BenchmarkSyncVerifyRunToBlock(b *testing.B) {
	benchSyncLoop(b, proc.RunToBlock, 0)
}

// BenchmarkSyncVerifySwitchOnSync adds the context-switch dispatch to
// every sync issue: each issue parks the thread and re-dispatches it
// after the switch cost, even when it is its processor's only
// runnable work.
func BenchmarkSyncVerifySwitchOnSync(b *testing.B) {
	benchSyncLoop(b, proc.SwitchOnSync, 40)
}

// BenchmarkPrefault times Prefault in the serving workload's shape: a
// 16x16 machine with two record pages homed on each node plus one
// counter page, every node prefaulting all 513 pages. Each mapping
// install also fills the node's TLB, so this is the set-up path the
// page table and TLB dominate. The machine is built with the timer
// stopped.
func BenchmarkPrefault(b *testing.B) {
	const side, perNode = 16, 2
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultConfig(side, side)
		cfg.NetContention = true
		m, err := NewMachine(cfg)
		if err != nil {
			b.Fatal(err)
		}
		nodes := m.Nodes()
		homes := make([]mesh.NodeID, nodes*perNode)
		for p := range homes {
			homes[p] = mesh.NodeID(p / perNode)
		}
		records := m.AllocHomed(homes...)
		counters := m.Alloc(mesh.NodeID(nodes-1), 1)
		b.StartTimer()
		for n := 0; n < nodes; n++ {
			m.Prefault(mesh.NodeID(n), records, len(homes))
			m.Prefault(mesh.NodeID(n), counters, 1)
		}
		b.StopTimer()
		if got := m.tables[0].Len(); got != len(homes)+1 {
			b.Fatalf("node 0 maps %d pages, want %d", got, len(homes)+1)
		}
		b.StartTimer()
	}
}
