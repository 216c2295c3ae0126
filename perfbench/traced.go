package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"plus/internal/core"
	"plus/internal/stats"
)

// timedRun runs w once on mc after a collection, so one run's garbage
// is not charged to the next, and returns its host wall time.
func timedRun(w workload, seed int64, mc core.Config) (simOut, time.Duration, error) {
	runtime.GC()
	start := time.Now()
	out, err := w.run(seed, mc)
	return out, time.Since(start), err
}

// tracedOut is what one observed run yields beyond its simOut.
type tracedOut struct {
	events  uint64    // engine dispatches (EvEngineDispatch)
	stalls  [4]uint64 // EvStallEnd cycles by stats.Stall* class
	metrics stats.Metrics
}

// add accumulates another run's counts and histograms.
func (t *tracedOut) add(u tracedOut) {
	t.events += u.events
	for c := range t.stalls {
		t.stalls[c] += u.stalls[c]
	}
	t.metrics.Add(&u.metrics)
}

// same reports whether two traced runs recorded the same events,
// stalls and protocol latency histograms.
func (t tracedOut) same(u tracedOut) bool {
	a, b := &t.metrics, &u.metrics
	return t.events == u.events && t.stalls == u.stalls &&
		a.RemoteRead == b.RemoteRead && a.WriteAck == b.WriteAck &&
		a.RMWRound == b.RMWRound && a.HopQueue == b.HopQueue
}

// tracedRun runs w with an observer recording every event, engine
// dispatches included, into a ring that must hold the whole run. The
// ring is large; callers release it with debug.FreeOSMemory.
func tracedRun(w workload, seed int64) (simOut, tracedOut, time.Duration, error) {
	o := stats.NewObserver(stats.ObserveConfig{Events: w.ring, EngineEvents: true})
	mc := w.machine()
	mc.Observe = o
	out, wall, err := timedRun(w, seed, mc)
	if err != nil {
		return out, tracedOut{}, wall, err
	}
	if n := o.Overwritten(); n > 0 {
		return out, tracedOut{}, wall, fmt.Errorf("traced leg: ring of %d events overwrote %d", o.RingCap(), n)
	}
	var t tracedOut
	for _, e := range o.Events() {
		switch e.Kind {
		case stats.EvEngineDispatch:
			t.events++
		case stats.EvStallEnd:
			t.stalls[e.Sub] += e.B
		}
	}
	t.metrics = o.Metrics
	return out, t, wall, nil
}

// shardProbe times sssp-16x16 on the first graph of the benchmark seed,
// whatever the workload: serially at the pinned GOMAXPROCS like the
// untraced leg, and on two engine shards at GOMAXPROCS 2 (two engine
// threads on this many cores), alternating reps. Every run's simulated
// outputs must equal the first serial run's. It returns the serial ÷
// sharded median wall and the cache hit ratio of sssp's machine totals.
func (b *bench) shardProbe(reps int) (speedup, hitRatio float64, ok bool) {
	defer runtime.GOMAXPROCS(gomaxprocs)
	w, _ := findWorkload("sssp-16x16")
	seed := w.inputSeeds(b.seed)[0]
	var serial, sharded []float64
	var ref simOut
	for r := 0; r < reps; r++ {
		for _, shards := range []int{1, 2} {
			runtime.GOMAXPROCS(max(gomaxprocs, shards))
			mc := w.machine()
			mc.Shards = shards
			out, wall, err := timedRun(w, seed, mc)
			if err == nil && r == 0 && shards == 1 {
				ref = out
			} else if err == nil {
				err = sameOutputs(fmt.Sprintf("sssp-16x16 seed %d at shards=%d", seed, shards), out, ref)
			}
			if !b.check(err) {
				return 0, 0, false
			}
			if shards == 1 {
				serial = append(serial, wall.Seconds())
			} else {
				sharded = append(sharded, wall.Seconds())
			}
		}
	}
	return median(serial) / median(sharded), float64(ref.CacheHits) / float64(ref.CacheHits+ref.CacheMisses), true
}

// hostLayers maps a function-name prefix to the layer its CPU samples
// count for; the first match wins and unmatched names are "other".
var hostLayers = []struct{ prefix, layer string }{
	{"plus/internal/sim.", "sim"},
	{"runtime.", "runtime"},
	{"plus/internal/proc.", "proc"},
	{"plus/internal/mesh.", "mesh"},
	{"plus/internal/coherence.", "coherence"},
	{"plus/internal/mmu.", "mmu"},
	{"plus/apps/", "app"},
}

// hostLayerNames is the report order of the host.* metrics.
var hostLayerNames = []string{"sim", "runtime", "proc", "mesh", "coherence", "mmu", "app", "other"}

// profileSplit CPU-profiles untraced rounds of b's workload for at
// least budget and splits the flat samples by layer with the
// toolchain's pprof. It returns each layer's share of all samples.
func profileSplit(b *bench, budget time.Duration) (map[string]float64, error) {
	path := filepath.Join(b.scratch, "perfbench-"+b.w.name+".pprof")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	start := time.Now()
	for ok := true; ok && time.Since(start) < budget; {
		_, _, _, ok = b.round("profiled run")
	}
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	var stderr bytes.Buffer
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", "-symbolize=none", path)
	cmd.Stderr = &stderr
	top, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	share := make(map[string]float64, len(hostLayerNames))
	for _, name := range hostLayerNames {
		share[name] = 0
	}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(top))
	for sc.Scan() {
		// Rows: flat flat% sum% cum cum% name...
		f := strings.Fields(sc.Text())
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") || !strings.HasSuffix(f[4], "%") {
			continue
		}
		pct, err := strconv.ParseFloat(strings.TrimSuffix(f[1], "%"), 64)
		if err != nil {
			continue
		}
		name, layer := strings.Join(f[5:], " "), "other"
		for _, h := range hostLayers {
			if strings.HasPrefix(name, h.prefix) {
				layer = h.layer
				break
			}
		}
		share[layer] += pct / 100
		total += pct / 100
	}
	if total < 0.9 {
		return nil, fmt.Errorf("pprof rows cover only %.0f%% of samples", 100*total)
	}
	return share, nil
}
