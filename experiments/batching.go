package experiments

import (
	"fmt"

	"plus/apps/synth"
	"plus/internal/core"
)

// batchingPoints sweeps the write-combining depth (Timing.MaxBatchWrites,
// 1 = combining off) on a write-heavy mostly-local load, where runs of
// consecutive same-page writes are common and each coalesced word saves
// a write request, an update per copy, and an ack. The interesting
// outputs are the update-message count falling with depth and the
// coalesced-word counter rising, at identical final memory contents
// (pinned by the core-level equivalence fuzzer).
func batchingPoints(o Options) []Point[AblationRow] {
	ops := 1500
	if o.Quick {
		ops = 400
	}
	var pts []Point[AblationRow]
	for _, depth := range []int{1, 2, 4, 8, 16} {
		depth := depth
		label := fmt.Sprintf("combine depth %d", depth)
		if depth == 1 {
			label = "combining off"
		}
		name := fmt.Sprintf("ablation batching depth=%d", depth)
		pts = append(pts, Point[AblationRow]{
			Name: name,
			Run: func() (AblationRow, error) {
				cfg := core.DefaultConfig(4, 2)
				cfg.Timing.MaxBatchWrites = depth
				o.Observe.Attach(&cfg, name)
				res, err := synth.Run(synth.Config{
					MeshW: 4, MeshH: 2, Procs: 8, OpsPerProc: ops,
					WriteFrac: 85, RMWFrac: 2, LocalFrac: 80,
					PagesPerProc: 1, Copies: 4, ThinkTime: 5,
					FencePeriod: 64, Seed: 41,
					Timing: &cfg,
				})
				if err != nil {
					return AblationRow{}, err
				}
				return AblationRow{
					Label: label, Elapsed: res.Elapsed, Messages: res.Messages,
					Extra: fmt.Sprintf("updates %d, coalesced %d",
						res.Updates, res.Totals.CoalescedWrites),
				}, nil
			},
		})
	}
	return pts
}

// AblationBatching runs the write-combining depth sweep.
func AblationBatching(o Options) ([]AblationRow, error) {
	return RunPoints(batchingPoints(o), o.Workers)
}
