package experiments

import (
	"fmt"

	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/stats"
)

// --- Fault-crash sweep: node crash & replicated-master failover --------

// CrashRow is one point of the fault-crash sweep: a fixed write-fence
// workload over four triply-replicated pages on a 4x4 mesh, re-run
// with 0, 1, 2 and 4 of the pages' master nodes crashing (staggered,
// 6000 cycles down each). The embedded counters are the recovery
// protocol's own accounting; RecoveryMean/RecoveryMax (inside the
// block) give the crash-to-failover latency the detection pipeline
// achieves, and Slowdown the whole-run cost versus the crash-free run.
type CrashRow struct {
	stats.CrashBlock
	Elapsed  sim.Cycles `json:"elapsed_cycles"`
	Slowdown float64    `json:"slowdown"`
	// CrashDropped counts messages the mesh discarded at down nodes;
	// Retransmits is the reliability sublayer's total repair activity.
	CrashDropped uint64 `json:"crash_dropped"`
	Retransmits  uint64 `json:"retransmits"`
}

// crashVictims are the master nodes the sweep crashes, in crash order;
// crashReplicas[i] holds the two nodes page i is replicated onto
// (neighbors of its master, never themselves victims, all distinct).
var crashVictims = []mesh.NodeID{5, 10, 6, 9}
var crashReplicas = [4][2]mesh.NodeID{{1, 4}, {11, 14}, {2, 7}, {8, 13}}

// runCrashPoint runs the fixed workload with the first `crashes`
// victims crashing. The workload itself is identical at every point —
// pages, writers and operation counts never vary — so elapsed-time
// differences measure only the outages and their recovery. Each writer
// ends with a sentinel store issued after the last restart has settled;
// validating the sentinels proves the final convergence survived every
// failover epoch (intermediate stores force-retired during an epoch
// carry lost-write semantics and are not individually asserted).
func runCrashPoint(crashes int, quick bool, o Options, name string) (CrashRow, error) {
	iters := 1600
	if quick {
		iters = 800
	}
	mcfg := core.DefaultConfig(4, 4)
	if crashes > 0 {
		f := mesh.FaultConfig{}
		for i := 0; i < crashes; i++ {
			f.Crashes = append(f.Crashes, mesh.CrashEvent{
				Node: crashVictims[i], At: sim.Cycles(8000 + i*20000), Duration: 6000,
			})
		}
		mcfg.Faults = f
		mcfg.CheckInvariants = true
		// A tight check period both exercises the checker across every
		// failover epoch and keeps the self-rearming tick from
		// quantizing the run's drain time too coarsely for Slowdown.
		mcfg.InvariantPeriod = 1000
	}
	o.Observe.Attach(&mcfg, name)
	m, err := core.NewMachine(mcfg)
	if err != nil {
		return CrashRow{}, err
	}
	bases := make([]memory.VAddr, len(crashVictims))
	for i, home := range crashVictims {
		bases[i] = m.Alloc(home, 1)
		m.Replicate(bases[i], crashReplicas[i][0], crashReplicas[i][1])
	}
	type sentinel struct {
		va   memory.VAddr
		want memory.Word
	}
	var sentinels []sentinel
	for i := range crashVictims {
		for j, node := range crashReplicas[i] {
			va := bases[i] + memory.VAddr(8+j)
			want := memory.Word(0xC0DE00 + i*2 + j)
			sentinels = append(sentinels, sentinel{va, want})
			va, want, iters := va, want, iters
			m.Spawn(node, func(th *proc.Thread) {
				for w := 0; w < iters; w++ {
					th.Write(va, memory.Word(w+1))
					th.Fence()
					th.Compute(40)
				}
				th.Write(va, want)
				th.Fence()
			})
		}
	}
	elapsed, err := m.Run()
	if err != nil {
		return CrashRow{}, err
	}
	for _, s := range sentinels {
		if got := m.Peek(s.va); got != s.want {
			return CrashRow{}, fmt.Errorf("sentinel at %#x: got %#x, want %#x", s.va, got, s.want)
		}
	}
	return CrashRow{
		CrashBlock:   m.Stats().Crash(),
		Elapsed:      elapsed,
		CrashDropped: m.Mesh().Stats().CrashDropped,
		Retransmits:  m.Stats().Retransmits,
	}, nil
}

// crashPoints builds the sweep: 0 (baseline), 1, 2 and 4 crashed
// masters.
func crashPoints(o Options) []Point[CrashRow] {
	var pts []Point[CrashRow]
	for _, crashes := range []int{0, 1, 2, 4} {
		crashes := crashes
		name := fmt.Sprintf("fault-crash crashes=%d", crashes)
		pts = append(pts, Point[CrashRow]{
			Name: name,
			Run: func() (CrashRow, error) {
				return runCrashPoint(crashes, o.Quick, o, name)
			},
		})
	}
	return pts
}

// fillCrashSlowdown normalizes every row to the crash-free baseline.
// The baseline runs without the reliability sublayer (a crash script
// turns it on), so the first crashy row's slowdown includes the
// sublayer's sequencing overhead; the increments between crashy rows
// isolate the per-outage cost.
func fillCrashSlowdown(rows []CrashRow) []CrashRow {
	var base sim.Cycles
	for _, r := range rows {
		if r.Crashes == 0 {
			base = r.Elapsed
			break
		}
	}
	for i := range rows {
		rows[i].Slowdown = 1.0
		if base > 0 {
			rows[i].Slowdown = float64(rows[i].Elapsed) / float64(base)
		}
	}
	return rows
}

// FormatFaultCrash renders the sweep as a table.
func FormatFaultCrash(rows []CrashRow) string {
	return renderTable("Fault-crash sweep: master crashes, failover & rejoin (4x4, 3 copies/page)",
		[]col{{"Crashes", -8}, {"Elapsed", 12}, {"Slowdown", 10}, {"RecMean", 9}, {"RecMax", 8},
			{"Promoted", 9}, {"Resynced", 9}, {"Reissued", 9}, {"Retired", 8}, {"Dropped", 9}},
		cells(rows, func(r CrashRow) []string {
			return []string{
				fmt.Sprint(r.Crashes),
				fmt.Sprint(r.Elapsed),
				fmt.Sprintf("%.2f", r.Slowdown),
				fmt.Sprintf("%.0f", r.RecoveryMean),
				fmt.Sprint(r.RecoveryMax),
				fmt.Sprint(r.MastersPromoted),
				fmt.Sprint(r.PagesResynced),
				fmt.Sprint(r.ReissuedOps),
				fmt.Sprint(r.ForcedRetires),
				fmt.Sprint(r.CrashDropped),
			}
		}))
}
