package main

import (
	"fmt"
	"hash/fnv"
	"regexp"
	"strconv"

	"plus/apps/beam"
	"plus/apps/kvserve"
	"plus/apps/sssp"
	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/proc"
)

// Workload sizes. They are fixed here, not by flags, so every run of a
// workload does the same amount of simulated work; only the seed varies.
const (
	ssspMesh     = 16
	ssspVertices = 1024
	ssspDegree   = 4
	ssspMaxW     = 16
	ssspCopies   = 4
	ssspGraphs   = 4

	beamMesh   = 4
	beamLayers = 48 // Figure 3-1 uses 32 layers x 96 states
	beamStates = 128
	beamBranch = 3
	beamSwitch = 40

	kvMesh        = 16
	kvOpsPerNode  = 256
	kvSkew        = 1.2
	kvReadPct     = 90
	kvArrivalMean = 400
	kvRecords     = 512 // records per tenant: 512 x 4 words = 2 pages
)

// simOut is everything a run computes in simulated time. Two runs of
// one workload with one seed must produce equal simOuts, traced or not,
// serial or sharded.
type simOut struct {
	Cycles      uint64
	Messages    uint64
	Utilization float64
	// Stalls are the machine-wide stall cycles by class (read, write,
	// fence, verify) from the app's counter report.
	Stalls [4]uint64
	// Pin identifies the computed answer: sssp's relaxation count and
	// distance digest, beam's processed count and score digest,
	// kvserve's memory checksum and late count.
	Pin string
	// KV holds kvserve's request latencies (zero for other workloads).
	KV kvOut
	// CacheHits and CacheMisses are sssp's machine-wide cache totals
	// (zero for other workloads, whose Results do not expose them).
	CacheHits, CacheMisses uint64
}

// kvOut is kvserve's open-loop view: scheduled arrival to completion.
type kvOut struct {
	ReadP50, ReadP99, WriteP50, WriteP99 uint64
	LateFrac                             float64
}

// workload is one benchmark input: how to build its set-up through
// public constructors, and how to run it through its app's Run.
type workload struct {
	name string
	// inputs is how many inputs one run simulates; see inputSeeds.
	inputs int
	// ring is the traced leg's event-ring capacity; it must hold the
	// whole run (the traced leg fails on any overwrite).
	ring int
	// traceSlack is how many stall cycles a traced run may move from
	// the untraced run's counters; see traceDivergence.
	traceSlack uint64
	// machine is the untraced, serial machine configuration.
	machine func() core.Config
	// setup builds the workload's inputs and machine the way its app's
	// Run does, without running it.
	setup func(seed int64) error
	// run executes one validated run on machine configuration mc.
	run func(seed int64, mc core.Config) (simOut, error)
}

var workloads = []workload{
	{
		name:   "sssp-16x16",
		inputs: ssspGraphs,
		ring:   1 << 23,
		machine: func() core.Config {
			return core.DefaultConfig(ssspMesh, ssspMesh)
		},
		setup: func(seed int64) error {
			sssp.Generate(ssspVertices, ssspDegree, ssspMaxW, seed)
			_, err := core.NewMachine(core.DefaultConfig(ssspMesh, ssspMesh))
			return err
		},
		run: runSSSP,
	},
	{
		name:       "beam-cs40",
		inputs:     1,
		ring:       1 << 22,
		traceSlack: 9,
		machine: func() core.Config {
			return core.DefaultConfig(beamMesh, beamMesh)
		},
		setup: func(int64) error {
			mc := core.DefaultConfig(beamMesh, beamMesh)
			mc.Mode, mc.SwitchCost = proc.SwitchOnSync, beamSwitch
			_, err := core.NewMachine(mc)
			return err
		},
		run: runBeam,
	},
	{
		name:    "kvserve-hot",
		inputs:  1,
		ring:    1 << 22,
		machine: kvMachine,
		setup:   setupKV,
		run:     runKV,
	},
}

// inputSeeds derives a run's input seeds from the benchmark seed. SSSP's
// simulated cost varies by about ten percent from one random graph to
// the next, so an sssp-16x16 run averages over ssspGraphs graphs; the
// other workloads vary far less and simulate one input.
func (w workload) inputSeeds(seed int64) []int64 {
	seeds := make([]int64, w.inputs)
	for i := range seeds {
		seeds[i] = seed*int64(w.inputs) + int64(i)
	}
	return seeds
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func runSSSP(seed int64, mc core.Config) (simOut, error) {
	r, err := sssp.Run(sssp.Config{
		MeshW: ssspMesh, MeshH: ssspMesh, Procs: ssspMesh * ssspMesh,
		Vertices: ssspVertices, Degree: ssspDegree, MaxWeight: ssspMaxW,
		Seed: seed, Copies: ssspCopies, Validate: true, Machine: &mc,
	})
	if err != nil {
		return simOut{}, err
	}
	h := fnv.New64a()
	for _, d := range r.Dist {
		h.Write([]byte{byte(d), byte(d >> 8), byte(d >> 16), byte(d >> 24)})
	}
	out := simOut{
		Cycles:      uint64(r.Elapsed),
		Utilization: r.Utilization,
		Pin:         fmt.Sprintf("relaxations=%d dist=%016x", r.Relaxations, h.Sum64()),
		CacheHits:   r.Totals.CacheHits,
		CacheMisses: r.Totals.CacheMisses,
	}
	if err := out.parseReport(r.Report); err != nil {
		return simOut{}, err
	}
	if out.Messages != r.Messages {
		return simOut{}, fmt.Errorf("sssp: report says %d messages, Result says %d", out.Messages, r.Messages)
	}
	return out, nil
}

func runBeam(_ int64, mc core.Config) (simOut, error) {
	r, err := beam.Run(beam.Config{
		MeshW: beamMesh, MeshH: beamMesh,
		Layers: beamLayers, States: beamStates, Branch: beamBranch,
		Style: beam.ContextSwitch, SwitchCost: beamSwitch, ThreadsPerProc: 2,
		Validate: true, Machine: &mc,
	})
	if err != nil {
		return simOut{}, err
	}
	h := fnv.New64a()
	for _, s := range r.Scores {
		h.Write([]byte{byte(s), byte(s >> 8), byte(s >> 16), byte(s >> 24)})
	}
	out := simOut{
		Cycles:      uint64(r.Elapsed),
		Utilization: r.Utilization,
		Pin:         fmt.Sprintf("processed=%d pruned=%d scores=%016x", r.Processed, r.Pruned, h.Sum64()),
	}
	return out, out.parseReport(r.Report)
}

func kvMachine() core.Config {
	mc := core.DefaultConfig(kvMesh, kvMesh)
	mc.NetContention = true
	return mc
}

func kvConfig(seed int64, mc *core.Config) kvserve.Config {
	return kvserve.Config{
		MeshW: kvMesh, MeshH: kvMesh,
		RecordsPerTenant: kvRecords,
		OpsPerNode:       kvOpsPerNode,
		ReadPct:          kvReadPct,
		Skew:             kvSkew,
		ArrivalMean:      kvArrivalMean,
		Placement:        kvserve.MasterLocal,
		Seed:             seed,
		Validate:         true,
		Machine:          mc,
	}
}

func runKV(seed int64, mc core.Config) (simOut, error) {
	r, err := kvserve.Run(kvConfig(seed, &mc))
	if err != nil {
		return simOut{}, err
	}
	if r.Ops != uint64(kvMesh*kvMesh*kvOpsPerNode) {
		return simOut{}, fmt.Errorf("kvserve: served %d ops, want %d", r.Ops, kvMesh*kvMesh*kvOpsPerNode)
	}
	out := simOut{
		Cycles:      uint64(r.Elapsed),
		Utilization: r.Utilization,
		Pin:         fmt.Sprintf("checksum=%016x late=%d reads=%d writes=%d", r.Checksum, r.Late, r.Reads, r.Writes),
		KV: kvOut{
			ReadP50:  r.ReadLat.Quantile(0.50),
			ReadP99:  r.ReadLat.Quantile(0.99),
			WriteP50: r.WriteLat.Quantile(0.50),
			WriteP99: r.WriteLat.Quantile(0.99),
			LateFrac: float64(r.Late) / float64(r.Ops),
		},
	}
	if err := out.parseReport(r.Report); err != nil {
		return simOut{}, err
	}
	if out.Messages != r.Messages {
		return simOut{}, fmt.Errorf("kvserve: report says %d messages, Result says %d", out.Messages, r.Messages)
	}
	return out, nil
}

// setupKV repeats kvserve.Run's set-up: the contended 16x16 machine,
// the master-local record block, the counter page and the Prefault of
// every record page on every node. The seed only drives arrivals and
// keys, so set-up does not depend on it.
func setupKV(int64) error {
	m, err := core.NewMachine(kvMachine())
	if err != nil {
		return err
	}
	nodes := m.Nodes()
	pagesPerTenant := kvRecords * 4 / memory.PageWords
	homes := make([]mesh.NodeID, nodes*pagesPerTenant)
	for p := range homes {
		homes[p] = mesh.NodeID(p / pagesPerTenant % nodes)
	}
	records := m.AllocHomed(homes...)
	counters := m.Alloc(mesh.NodeID(nodes-1), 1)
	for n := 0; n < nodes; n++ {
		m.Prefault(mesh.NodeID(n), records, len(homes))
		m.Prefault(mesh.NodeID(n), counters, 1)
	}
	return nil
}

var (
	reportMessages = regexp.MustCompile(`messages: (\d+) total`)
	reportStalls   = regexp.MustCompile(`stalls \(cycles\): read (\d+), write (\d+), verify (\d+), fence (\d+)`)
)

// parseReport reads the message total and the stall totals from an
// app's rendered counter report (stats.Machine.Report), the one
// counter view every app's Result exposes.
func (o *simOut) parseReport(report string) error {
	m := reportMessages.FindStringSubmatch(report)
	s := reportStalls.FindStringSubmatch(report)
	if m == nil || s == nil {
		return fmt.Errorf("counter report lacks the message or stall totals")
	}
	var err error
	if o.Messages, err = strconv.ParseUint(m[1], 10, 64); err != nil {
		return fmt.Errorf("counter report: %w", err)
	}
	// Report order is read, write, verify, fence; simOut's is the
	// stats.Stall* order read, write, fence, verify.
	for i, j := range []int{1, 2, 4, 3} {
		if o.Stalls[i], err = strconv.ParseUint(s[j], 10, 64); err != nil {
			return fmt.Errorf("counter report: %w", err)
		}
	}
	return nil
}
