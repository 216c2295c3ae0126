package core_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"plus/internal/core"
	"plus/internal/kernel"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/stats"
)

// digest captures everything a run can observe: cycle-exact per-thread
// operation logs (every value read plus the clock after every
// operation), the final memory image, elapsed time and the full
// counter block. Two runs with equal digests executed the same
// schedule.
type digest struct {
	Elapsed  sim.Cycles
	Logs     [][]uint64
	Image    [][]memory.Word
	Totals   stats.Node
	Messages uint64
	Updates  uint64
	Relia    stats.Reliability
	Net      mesh.Stats
}

const (
	fuzzMeshW = 4
	fuzzMeshH = 4
	fuzzPages = 8
	fuzzOps   = 300
)

// runRandom executes a seeded random program — every node runs
// threads threads, each issuing a mixed stream of reads, writes,
// delayed RMWs, fences and compute against a shared page set, some
// pages replicated — on the given shard count, and returns its digest.
// Optional mods mutate the machine config before construction
// (SwitchOnSync, ...).
func runRandom(t *testing.T, shards int, seed int64, faults mesh.FaultConfig, batchWrites, threads int, mods ...func(*core.Config)) digest {
	t.Helper()
	cfg := core.DefaultConfig(fuzzMeshW, fuzzMeshH)
	cfg.Shards = shards
	cfg.Faults = faults
	cfg.Timing.MaxBatchWrites = batchWrites
	for _, mod := range mods {
		mod(&cfg)
	}
	m, err := core.NewMachine(cfg)
	if err != nil {
		t.Fatalf("NewMachine(shards=%d): %v", shards, err)
	}
	n := m.Nodes()

	bases := make([]memory.VAddr, fuzzPages)
	for pg := 0; pg < fuzzPages; pg++ {
		home := mesh.NodeID((pg * 5) % n)
		bases[pg] = m.Alloc(home, 1)
		if pg%2 == 0 {
			m.Replicate(bases[pg], mesh.NodeID((int(home)+3)%n), mesh.NodeID((int(home)+7)%n))
		}
		for off := 0; off < memory.PageWords; off++ {
			m.Poke(bases[pg]+memory.VAddr(off), memory.Word(uint32(pg*memory.PageWords+off)))
		}
	}

	// Thread k on node runs stream k*n+node: with one thread per node
	// the streams are the nodes' own.
	logs := make([][]uint64, threads*n)
	for id := 0; id < threads*n; id++ {
		id, node := id, id%n
		m.SpawnNamed(mesh.NodeID(node), fmt.Sprintf("fuzz%d", id), func(th *proc.Thread) {
			rng := rand.New(rand.NewSource(seed*1000 + int64(id)))
			rec := func(v uint64) { logs[id] = append(logs[id], v) }
			for op := 0; op < fuzzOps; op++ {
				va := bases[rng.Intn(fuzzPages)] + memory.VAddr(rng.Intn(memory.PageWords))
				switch rng.Intn(10) {
				case 0, 1, 2:
					rec(uint64(th.Read(va)))
				case 3, 4:
					th.Write(va, memory.Word(rng.Uint32()))
				case 5:
					rec(uint64(th.FaddSync(va, int32(rng.Intn(7)-3))))
				case 6:
					rec(uint64(th.MinXchngSync(va, memory.Word(rng.Uint32()))))
				case 7:
					h := th.DelayedRead(va)
					th.Compute(sim.Cycles(1 + rng.Intn(30)))
					rec(uint64(th.Verify(h)))
				case 8:
					th.Compute(sim.Cycles(1 + rng.Intn(50)))
				case 9:
					th.Fence()
				}
				rec(uint64(th.Now()))
			}
		})
	}

	elapsed, err := m.Run()
	if err != nil {
		t.Fatalf("Run(shards=%d): %v", shards, err)
	}
	d := digest{
		Elapsed:  elapsed,
		Logs:     logs,
		Image:    make([][]memory.Word, fuzzPages),
		Totals:   m.Stats().Totals(),
		Messages: m.Stats().Messages(),
		Updates:  m.Stats().MsgUpdate,
		Relia:    m.Stats().Reliability(),
		Net:      m.Mesh().Stats(),
	}
	for pg := 0; pg < fuzzPages; pg++ {
		img := make([]memory.Word, memory.PageWords)
		for off := range img {
			img[off] = m.Peek(bases[pg] + memory.VAddr(off))
		}
		d.Image[pg] = img
	}
	return d
}

// diffDigest pinpoints the first divergence between two digests, for
// actionable failure output.
func diffDigest(t *testing.T, want, got digest, label string) {
	t.Helper()
	if want.Elapsed != got.Elapsed {
		t.Errorf("%s: elapsed %d != serial %d", label, got.Elapsed, want.Elapsed)
	}
	for n := range want.Logs {
		if len(want.Logs[n]) != len(got.Logs[n]) {
			t.Errorf("%s: thread %d log length %d != serial %d", label, n, len(got.Logs[n]), len(want.Logs[n]))
			continue
		}
		for i := range want.Logs[n] {
			if want.Logs[n][i] != got.Logs[n][i] {
				t.Errorf("%s: thread %d log[%d] = %d, serial %d", label, n, i, got.Logs[n][i], want.Logs[n][i])
				break
			}
		}
	}
	for pg := range want.Image {
		for off := range want.Image[pg] {
			if want.Image[pg][off] != got.Image[pg][off] {
				t.Errorf("%s: page %d word %d = %#x, serial %#x", label, pg, off, got.Image[pg][off], want.Image[pg][off])
				break
			}
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("%s: digest differs from serial run (counters: got %+v msgs=%d, want %+v msgs=%d; net got %+v want %+v; reliability got %+v want %+v)",
			label, got.Totals, got.Messages, want.Totals, want.Messages, got.Net, want.Net, got.Relia, want.Relia)
	}
}

// TestShardEquivalenceFuzz runs seeded random programs serially and on
// 2, 4 and 8 shards and requires byte-identical digests: same elapsed
// cycles, same per-thread values and timestamps, same memory images,
// same counters. Four legs stress the paths most likely to diverge:
// the plain protocol, the unreliable network (per-source-node fault
// PRNGs, retransmission timers), write combining (multi-word batches
// interacting with the lookahead window), and two SwitchOnSync threads
// per node, so every shard worker switches between live coroutines.
func TestShardEquivalenceFuzz(t *testing.T) {
	switchOnSync := func(c *core.Config) { c.Mode, c.SwitchCost = proc.SwitchOnSync, 40 }
	legs := []struct {
		name    string
		faults  mesh.FaultConfig
		batch   int
		threads int // per node; 0 means 1
		mods    []func(*core.Config)
	}{
		{name: "base", batch: 1},
		{name: "faults", batch: 1, faults: mesh.FaultConfig{
			Seed: 11, DropRate: 0.02, DupRate: 0.02, DelayRate: 0.03, DelayMax: 40,
		}},
		{name: "combining", batch: 4},
		{name: "switch-on-sync", batch: 1, threads: 2, mods: []func(*core.Config){switchOnSync}},
	}
	seeds := []int64{1, 42}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, leg := range legs {
		leg := leg
		t.Run(leg.name, func(t *testing.T) {
			threads := max(leg.threads, 1)
			for _, seed := range seeds {
				serial := runRandom(t, 1, seed, leg.faults, leg.batch, threads, leg.mods...)
				for _, k := range []int{2, 4, 8} {
					got := runRandom(t, k, seed, leg.faults, leg.batch, threads, leg.mods...)
					diffDigest(t, serial, got, fmt.Sprintf("%s seed=%d shards=%d", leg.name, seed, k))
				}
			}
		})
	}
}

// TestShardRejectsSerialOnly pins the serial-only gates. On a sharded
// machine, each serial-only feature makes NewMachine fail with an
// error naming the feature and telling the caller to run serially, and
// a thread that reorganizes pages mid-run makes Run fail naming the
// operation (the kernel records the refusal: a panic on a shard
// worker goroutine would kill the process).
func TestShardRejectsSerialOnly(t *testing.T) {
	build := []struct {
		feature string
		mod     func(*core.Config)
	}{
		{"crash injection", func(c *core.Config) {
			c.Faults.Crashes = []mesh.CrashEvent{{Node: 1, At: 100, Duration: 50}}
		}},
		{"LinkBufFlits", func(c *core.Config) {
			c.NetContention = true
			c.Faults.LinkBufFlits = 8
		}},
		{"Contention", func(c *core.Config) { c.NetContention = true }},
		{"Observe", func(c *core.Config) { c.Observe = stats.NewObserver(stats.ObserveConfig{}) }},
		{"CompetitiveThreshold", func(c *core.Config) { c.CompetitiveThreshold = 4 }},
	}
	for _, tc := range build {
		t.Run(tc.feature, func(t *testing.T) {
			cfg := core.DefaultConfig(fuzzMeshW, fuzzMeshH)
			tc.mod(&cfg)
			if _, err := core.NewMachine(cfg); err != nil {
				t.Fatalf("serial NewMachine: %v", err)
			}
			cfg.Shards = 2
			_, err := core.NewMachine(cfg)
			if err == nil {
				t.Fatal("sharded NewMachine: want error, got nil")
			}
			for _, sub := range []string{tc.feature, "serial-only", "Shards <= 1"} {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("error %q missing %q", err, sub)
				}
			}
		})
	}

	// Every node reorganizes its own page at once, so on a sharded
	// machine the refusals race across shard workers.
	ops := []struct {
		op string
		do func(k *kernel.Kernel, vp memory.VPage, node, copyNode mesh.NodeID)
	}{
		{"Replicate", func(k *kernel.Kernel, vp memory.VPage, node, _ mesh.NodeID) { k.Replicate(vp, node, nil) }},
		{"DeleteCopy", func(k *kernel.Kernel, vp memory.VPage, _, copyNode mesh.NodeID) { k.DeleteCopy(vp, copyNode) }},
		{"Migrate", func(k *kernel.Kernel, vp memory.VPage, node, copyNode mesh.NodeID) { k.Migrate(vp, copyNode, node) }},
	}
	for _, tc := range ops {
		t.Run(tc.op, func(t *testing.T) {
			run := func(shards int) error {
				cfg := core.DefaultConfig(fuzzMeshW, fuzzMeshH)
				cfg.Shards = shards
				m, err := core.NewMachine(cfg)
				if err != nil {
					t.Fatal(err)
				}
				n := m.Nodes()
				for node := 0; node < n; node++ {
					node := mesh.NodeID(node)
					copyNode := (node + 4) % mesh.NodeID(n)
					va := m.Alloc((node+8)%mesh.NodeID(n), 1)
					m.Replicate(va, copyNode)
					m.Spawn(node, func(th *proc.Thread) {
						th.Read(va)
						tc.do(m.Kernel(), va.Page(), node, copyNode)
						th.Compute(10)
					})
				}
				_, err = m.Run()
				return err
			}
			if err := run(1); err != nil {
				t.Fatalf("serial run: %v", err)
			}
			err := run(2)
			if err == nil {
				t.Fatal("sharded run: want error, got nil")
			}
			for _, sub := range []string{tc.op, "sharded run", "serial-only"} {
				if !strings.Contains(err.Error(), sub) {
					t.Errorf("error %q missing %q", err, sub)
				}
			}
		})
	}
}
