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
