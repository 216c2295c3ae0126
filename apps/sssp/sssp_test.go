package sssp

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"plus/internal/core"
)

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(100, 3, 10, 7)
	b := Generate(100, 3, 10, 7)
	if a.Edges() != b.Edges() {
		t.Fatal("edge counts differ")
	}
	for i := range a.Targets {
		if a.Targets[i] != b.Targets[i] || a.Weights[i] != b.Weights[i] {
			t.Fatal("graphs differ for same seed")
		}
	}
}

func TestGenerateReachable(t *testing.T) {
	g := Generate(50, 2, 5, 1)
	dist := Dijkstra(g, 0)
	for v, d := range dist {
		if d == Inf {
			t.Fatalf("vertex %d unreachable", v)
		}
	}
}

func TestDijkstraSmallGraph(t *testing.T) {
	// 0→1 (w by chain), plus whatever extras; verify triangle
	// inequality holds for all edges: dist[u] <= dist[v] + w(v,u).
	g := Generate(64, 4, 8, 3)
	dist := Dijkstra(g, 0)
	if dist[0] != 0 {
		t.Fatalf("dist[source] = %d", dist[0])
	}
	for v := 0; v < g.V; v++ {
		for e := g.Offsets[v]; e < g.Offsets[v+1]; e++ {
			u := g.Targets[e]
			if dist[u] > dist[v]+g.Weights[e] {
				t.Fatalf("triangle violated at edge %d→%d", v, u)
			}
		}
	}
}

func TestDijkstraPathOptimalityProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := Generate(40, 3, 7, seed)
		dist := Dijkstra(g, 0)
		// Every non-source vertex must be reached through some edge
		// that exactly achieves its distance.
		for v := 1; v < g.V; v++ {
			found := false
			for s := 0; s < g.V && !found; s++ {
				for e := g.Offsets[s]; e < g.Offsets[s+1]; e++ {
					if g.Targets[e] == int32(v) && dist[s]+g.Weights[e] == dist[v] {
						found = true
						break
					}
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestParallelMatchesDijkstraSingleProc(t *testing.T) {
	res, err := Run(Config{MeshW: 2, MeshH: 1, Procs: 1, Vertices: 128, Seed: 5, Validate: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed == 0 {
		t.Fatal("no time elapsed")
	}
}

func TestParallelMatchesDijkstraManyProcs(t *testing.T) {
	for _, copies := range []int{1, 2, 4} {
		res, err := Run(Config{MeshW: 4, MeshH: 2, Procs: 8, Vertices: 256, Seed: 11, Copies: copies, Validate: true})
		if err != nil {
			t.Fatalf("copies=%d: %v", copies, err)
		}
		if res.Relaxations < 256 {
			t.Fatalf("copies=%d: only %d relaxations", copies, res.Relaxations)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := Config{MeshW: 4, MeshH: 1, Procs: 4, Vertices: 128, Seed: 3, Copies: 2}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Elapsed != b.Elapsed || a.Messages != b.Messages {
		t.Fatalf("nondeterministic: %d/%d vs %d/%d", a.Elapsed, a.Messages, b.Elapsed, b.Messages)
	}
}

func TestReplicationShiftsTraffic(t *testing.T) {
	// The Table 2-1 trends: with more copies, the read ratio
	// (local/remote) rises and the total/update ratio falls.
	base := Config{MeshW: 4, MeshH: 4, Procs: 16, Vertices: 512, Seed: 9, Validate: true}
	run := func(copies int) Result {
		cfg := base
		cfg.Copies = copies
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("copies=%d: %v", copies, err)
		}
		return res
	}
	r1 := run(1)
	r3 := run(3)
	if r3.ReadRatio <= r1.ReadRatio {
		t.Errorf("read ratio did not rise with replication: %f -> %f", r1.ReadRatio, r3.ReadRatio)
	}
	if r1.Updates != 0 && r3.UpdateRatio >= r1.UpdateRatio {
		t.Errorf("update ratio did not fall: %f -> %f", r1.UpdateRatio, r3.UpdateRatio)
	}
	if r3.Updates <= r1.Updates {
		t.Errorf("updates did not grow with copies: %d -> %d", r1.Updates, r3.Updates)
	}
}

func TestReplicationImprovesRuntime(t *testing.T) {
	// Figure 2-1's headline: at 16 processors, replication helps.
	base := Config{MeshW: 4, MeshH: 4, Procs: 16, Vertices: 512, Seed: 9}
	r1, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	repl := base
	repl.Copies = 4
	r4, err := Run(repl)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Elapsed >= r1.Elapsed {
		t.Fatalf("replication did not help: %d >= %d cycles", r4.Elapsed, r1.Elapsed)
	}
}

// TestSSSPShardEquivalence pins the sharded engine on the Figure 2-1
// workload (replicated SSSP, copies 4): every shard count must
// reproduce the serial run's whole Result (elapsed cycles, counter
// blocks, relaxations and distances), not just a few fields. The 32x32
// (1024-processor) case takes seconds per run and is skipped under
// -short.
func TestSSSPShardEquivalence(t *testing.T) {
	run := func(w, h, vertices, shards int) Result {
		mc := core.DefaultConfig(w, h)
		mc.Shards = shards
		res, err := Run(Config{
			MeshW: w, MeshH: h, Procs: w * h,
			Vertices: vertices, Degree: 4, Seed: 42,
			Copies: 4, Validate: true,
			Machine: &mc,
		})
		if err != nil {
			t.Fatalf("%dx%d shards=%d: %v", w, h, shards, err)
		}
		res.Report = "" // rendered text of the counters compared below
		return res
	}
	cases := []struct {
		w, h, vertices int
		shards         []int
		long           bool
	}{
		{8, 8, 512, []int{2, 4, 8, 16}, false},
		{32, 32, 2048, []int{8}, true},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%dx%d", c.w, c.h), func(t *testing.T) {
			if c.long && testing.Short() {
				t.Skip("seconds per run; run without -short")
			}
			serial := run(c.w, c.h, c.vertices, 1)
			for _, k := range c.shards {
				if got := run(c.w, c.h, c.vertices, k); !reflect.DeepEqual(got, serial) {
					t.Errorf("shards=%d diverged from serial: elapsed %d/%d, totals %+v / %+v",
						k, got.Elapsed, serial.Elapsed, got.Totals, serial.Totals)
				}
			}
		})
	}
}
