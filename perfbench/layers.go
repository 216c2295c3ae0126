package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"plus/internal/cache"
	"plus/internal/coherence"
	"plus/internal/core"
	"plus/internal/memory"
	"plus/internal/mesh"
	"plus/internal/mmu"
	"plus/internal/proc"
	"plus/internal/sim"
	"plus/internal/stats"
	"plus/internal/timing"
)

// micro is one layer micro-benchmark. op performs n operations of the
// public function it times and returns an error when the proof that the
// intended code path ran fails; construction is not timed.
type micro struct {
	name string // metric prefix: <name>_ns and <name>_allocs
	op   func(n int) error
}

// micros lists every layer micro-benchmark in report order.
func micros() []micro {
	return []micro{
		{"sim.heap_op", heapOpMicro(heapDepth)},
		{"sim.handoff", handoffMicro},
		{"sim.inline_wait", inlineWaitMicro},
		{"sim.advance", advanceMicro},
		{"proc.switch", switchMicro},
		{"mesh.send", sendMicro(false)},
		{"mesh.send_contended", sendMicro(true)},
		{"coherence.remote_read", remoteReadMicro()},
		{"coherence.write_ack", writeAckMicro()},
		{"coherence.rmw", rmwMicro(5)},
		{"coherence.rmw_replicated", rmwMicro(5, 6, 9, 10)},
		{"cache.read_hit", cacheMicro(true)},
		{"cache.read_miss", cacheMicro(false)},
		{"mmu.tlb_lookup", tlbLookupMicro()},
		{"mmu.tlb_insert", tlbInsertMicro()},
	}
}

// Micro-benchmark timing: the batch size is grown until one batch takes
// microBatch, then microReps batches are timed and the medians of
// ns/op and allocs/op reported.
const (
	microBatch = 40 * time.Millisecond
	microReps  = 5
)

// timeMicro returns the median ns/op and allocs/op of d.
func timeMicro(d micro) (nsPerOp, allocsPerOp float64, err error) {
	n := 16
	for {
		start := time.Now()
		if err := d.op(n); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", d.name, err)
		}
		el := time.Since(start)
		if el >= microBatch/4 {
			n = int(float64(n) * float64(microBatch) / float64(el))
			break
		}
		n *= 4
	}
	var ns, allocs []float64
	var before, after runtime.MemStats
	for r := 0; r < microReps; r++ {
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		if err := d.op(n); err != nil {
			return 0, 0, fmt.Errorf("%s: %w", d.name, err)
		}
		el := time.Since(start)
		runtime.ReadMemStats(&after)
		ns = append(ns, float64(el.Nanoseconds())/float64(n))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(n))
	}
	return median(ns), median(allocs), nil
}

// --- internal/sim ----------------------------------------------------

// heapDepth is the resident event count of the heap micro-benchmark:
// the engine queue depth sssp-16x16 dispatches at. Measured by counting
// Engine.Pending() at every Step in a build instrumented for the purpose
// (untraced, serial, the four graphs of seed 1): median 269-273, mean
// 275-277, 10th to 90th percentile 256-309, maximum 341 over about
// 1.3 M dispatches per graph.
const heapDepth = 270

// holdSink is the classic hold model: each dispatched event schedules
// one replacement a pseudo-random 1..64 cycles ahead, so the queue
// stays at its resident depth and every op is one ScheduleEvent plus
// one Step through a heap of that depth.
type holdSink struct {
	eng  *sim.Engine
	x    uint64
	left int
}

func (h *holdSink) HandleEvent(int, any) {
	if h.left > 0 {
		h.left--
		h.x = h.x*6364136223846793005 + 1442695040888963407
		h.eng.ScheduleEvent(sim.Cycles(1+h.x>>58), h, 0, nil)
	}
}

func heapOpMicro(depth int) func(int) error {
	eng := sim.NewEngine()
	h := &holdSink{eng: eng, x: 1, left: depth}
	for i := 0; i < depth; i++ {
		h.HandleEvent(0, nil)
	}
	return func(n int) error {
		h.left = n
		for i := 0; i < n; i++ {
			eng.Step()
		}
		if eng.Pending() != depth {
			return fmt.Errorf("heap depth drifted to %d, want %d", eng.Pending(), depth)
		}
		return nil
	}
}

// handoffMicro times one WaitCycles between two coroutines that
// really alternate: A waits at even cycles and B at odd ones, so each
// wait finds the other coroutine's wake due first and must park and
// hand control over. The resume log proves it: every resume of one
// coroutine is followed by a resume of the other.
func handoffMicro(n int) error {
	eng := sim.NewEngine()
	log := make([]byte, 0, 2*n)
	body := func(id byte) func(*sim.Coroutine) {
		return func(co *sim.Coroutine) {
			for i := 0; i < n; i++ {
				co.WaitCycles(2)
				log = append(log, id)
			}
		}
	}
	a := sim.NewCoroutine(eng, "a", body('a'))
	b := sim.NewCoroutine(eng, "b", body('b'))
	a.WakeAfter(0)
	b.WakeAfter(1)
	eng.Run()
	if !a.Done() || !b.Done() || len(log) != 2*n {
		return fmt.Errorf("handoff: %d resumes, want %d", len(log), 2*n)
	}
	for i, id := range log {
		if id != "ab"[i%2] {
			return fmt.Errorf("handoff: resume %d went to %c, not the other coroutine", i, id)
		}
	}
	return nil
}

// chainSink reschedules itself every cycle: competing activity that no
// coroutine owns, so a wait cannot take the AdvanceIf fast path but
// ParkInline can drive it on the waiting coroutine's own goroutine.
type chainSink struct {
	eng     *sim.Engine
	left    int
	handled int
}

func (s *chainSink) HandleEvent(int, any) {
	s.handled++
	if s.left > 0 {
		s.left--
		s.eng.ScheduleEvent(1, s, 0, nil)
	}
}

// inlineWaitMicro times one WaitCycles that ParkInline completes
// inline: this is the path internal/sim's BenchmarkCoroutineSwitch
// actually measures.
func inlineWaitMicro(n int) error {
	eng := sim.NewEngine()
	s := &chainSink{eng: eng, left: n}
	eng.ScheduleEvent(1, s, 0, nil)
	co := sim.NewCoroutine(eng, "w", func(co *sim.Coroutine) {
		for i := 0; i < n; i++ {
			co.WaitCycles(1)
		}
	})
	co.WakeAfter(0)
	eng.Run()
	if !co.Done() || s.handled < n {
		return fmt.Errorf("inline wait: competing sink ran %d times for %d waits", s.handled, n)
	}
	return nil
}

// advanceMicro times AdvanceIf on an empty queue, the direct clock
// advance of a wait with nothing else due.
func advanceMicro(n int) error {
	eng := sim.NewEngine()
	for i := 0; i < n; i++ {
		if !eng.AdvanceIf(1) {
			return errors.New("advance: AdvanceIf refused on an empty queue")
		}
	}
	if eng.Now() != sim.Cycles(n) {
		return fmt.Errorf("advance: clock at %d, want %d", eng.Now(), n)
	}
	return nil
}

// --- internal/proc ---------------------------------------------------

// switchMicro times a SwitchOnSync Issue with two ready threads on one
// processor: every Issue yields to the other thread. The context-switch
// counter proves the switches happened; the counter word proves every
// fetch-and-add executed.
func switchMicro(n int) error {
	mc := core.DefaultConfig(2, 1)
	mc.Mode, mc.SwitchCost = proc.SwitchOnSync, beamSwitch
	m, err := core.NewMachine(mc)
	if err != nil {
		return err
	}
	va := m.Alloc(0, 1)
	m.Prefault(0, va, 1)
	for k := 0; k < 2; k++ {
		m.Spawn(0, func(t *proc.Thread) {
			for i := 0; i < n; i++ {
				t.Verify(t.Fadd(va, 1))
			}
		})
	}
	if _, err := m.Run(); err != nil {
		return err
	}
	if got := m.Peek(va); got != memory.Word(2*n) {
		return fmt.Errorf("switch: counter %d, want %d", got, 2*n)
	}
	if sw := m.Stats().Totals().CtxSwitches; sw < uint64(2*n) {
		return fmt.Errorf("switch: %d context switches for %d issues", sw, 2*n)
	}
	return nil
}

// --- internal/mesh ---------------------------------------------------

// contendedBurst is how many messages one sender pushes down the same
// link before the engine runs, so all but the first queue behind it.
const contendedBurst = 8

// sendMicro times one Send plus its delivery on a 16x16 mesh. Without
// contention it sends corner to corner; with contention it sends bursts
// from node 1 to node 0, all over one link, and proves they queued.
func sendMicro(contended bool) func(int) error {
	eng := sim.NewEngine()
	cfg := mesh.DefaultConfig(16, 16)
	cfg.Contention = contended
	m := mesh.New(eng, cfg)
	delivered := 0
	drain := mesh.PortFunc(func(p *mesh.Msg) {
		delivered++
		m.FreeMsg(p)
	})
	for id := mesh.NodeID(0); int(id) < m.Nodes(); id++ {
		m.Attach(id, drain)
	}
	return func(n int) error {
		delivered = 0
		wait := m.Stats().QueueWait
		if !contended {
			for i := 0; i < n; i++ {
				m.Send(0, mesh.NodeID(m.Nodes()-1), 3, m.AllocMsg())
				eng.Run()
			}
		} else {
			for i := 0; i < n; i += contendedBurst {
				for k := 0; k < contendedBurst && i+k < n; k++ {
					m.Send(1, 0, 3, m.AllocMsg())
				}
				eng.Run()
			}
		}
		if delivered != n {
			return fmt.Errorf("send: %d of %d messages delivered", delivered, n)
		}
		if queued := m.Stats().QueueWait > wait; queued != contended {
			return fmt.Errorf("send: link queueing %v with contention %v", queued, contended)
		}
		return nil
	}
}

// --- internal/coherence ----------------------------------------------

// rig is a 4x4 machine fragment wired from public constructors: the
// engine, mesh, and one memory, cache and coherence manager per node.
type rig struct {
	eng  *sim.Engine
	mems []*memory.Memory
	cms  []*coherence.CM
}

func newRig() *rig {
	eng := sim.NewEngine()
	net := mesh.New(eng, mesh.DefaultConfig(4, 4))
	st := stats.New(16)
	tm := timing.Default()
	r := &rig{eng: eng}
	for i := 0; i < 16; i++ {
		mem := memory.New()
		r.mems = append(r.mems, mem)
		r.cms = append(r.cms, coherence.New(mesh.NodeID(i), eng, net, mem, cache.New(cache.DefaultConfig(), tm), tm, st))
	}
	return r
}

// page installs one page with copies on nodes in copy-list order (the
// first is the master) and returns each copy's address of word 0.
func (r *rig) page(nodes ...mesh.NodeID) map[mesh.NodeID]coherence.GAddr {
	gp := make([]memory.GPage, len(nodes))
	for i, n := range nodes {
		gp[i] = memory.GPage{Node: n, Page: r.mems[n].AllocFrame()}
	}
	addrs := make(map[mesh.NodeID]coherence.GAddr, len(nodes))
	for i, n := range nodes {
		next := memory.NilGPage
		if i+1 < len(nodes) {
			next = gp[i+1]
		}
		r.cms[n].InstallPage(gp[i].Page, gp[0], next)
		addrs[n] = coherence.At(gp[i], 0)
	}
	return addrs
}

// remoteReadMicro times CM.Read from node 0 of a word held only on
// node 5, two hops away, and checks every value returned.
func remoteReadMicro() func(int) error {
	r := newRig()
	g := r.page(5)[5]
	for off := uint32(0); off < memory.PageWords; off++ {
		r.mems[5].Write(g.Page, off, memory.Word(off+1))
	}
	var got memory.Word
	done := func(v memory.Word) { got = v }
	return func(n int) error {
		for i := 0; i < n; i++ {
			a := g
			a.Off = uint32(i) & memory.OffMask
			got = 0
			r.cms[0].Read(a, done)
			r.eng.Run()
			if got != memory.Word(a.Off+1) {
				return fmt.Errorf("remote read of word %d returned %d", a.Off, got)
			}
		}
		return nil
	}
}

// writeAckMicro times Write plus Fence at a replica of a 4-copy page:
// the write goes to the master, the update runs down the copy list and
// the ack returns. The tail copy must hold every value written.
func writeAckMicro() func(int) error {
	r := newRig()
	copies := r.page(5, 6, 9, 10)
	w, tail := copies[6], copies[10]
	fenced := false
	accepted := func() {}
	fence := func() { fenced = true }
	seq := memory.Word(0)
	return func(n int) error {
		for i := 0; i < n; i++ {
			seq++
			a := w
			a.Off = uint32(i) & memory.OffMask
			fenced = false
			r.cms[6].Write(a, seq, accepted)
			r.cms[6].Fence(fence)
			r.eng.Run()
			if !fenced {
				return errors.New("write ack: fence never completed")
			}
			if v := r.mems[10].Read(tail.Page, a.Off); v != seq {
				return fmt.Errorf("write ack: tail copy holds %d, want %d", v, seq)
			}
		}
		return nil
	}
}

// rmwMicro times a fetch-and-add issued from node 0 on a word of a page
// with copies on nodes (the first is the master) plus the Verify of its
// result; each result must be the previous count. With more than one
// copy the master's update runs down the copy list, and the tail copy
// must hold the new count once the engine drains.
func rmwMicro(nodes ...mesh.NodeID) func(int) error {
	r := newRig()
	copies := r.page(nodes...)
	g, tail := copies[nodes[0]], copies[nodes[len(nodes)-1]]
	slot := -1
	issued := func(s int) { slot = s }
	var got memory.Word
	done := func(v memory.Word) { got = v }
	count := memory.Word(0)
	return func(n int) error {
		for i := 0; i < n; i++ {
			slot = -1
			r.cms[0].RMW(coherence.OpFadd, g, 1, issued)
			if slot < 0 {
				return errors.New("rmw: issue found no free delayed-operation slot")
			}
			r.cms[0].Verify(slot, done)
			r.eng.Run()
			if got != count {
				return fmt.Errorf("rmw: fetch-and-add returned %d, want %d", got, count)
			}
			count++
			if v := r.mems[tail.Node].Read(tail.Page, tail.Off); v != count {
				return fmt.Errorf("rmw: copy on node %d holds %d, want %d", tail.Node, v, count)
			}
		}
		return nil
	}
}

// --- internal/cache --------------------------------------------------

// cacheMicro times Cache.Read: hits re-read one line; misses sweep
// three times the cache's capacity line by line, so the direct-mapped
// cache never holds the next line. The hit and miss counters prove the
// path.
func cacheMicro(hit bool) func(int) error {
	cfg := cache.DefaultConfig()
	c := cache.New(cfg, timing.Default())
	if hit {
		c.Read(0, 0)
	}
	lines := 3 * cfg.SizeWords / cfg.LineWords
	next := 0
	return func(n int) error {
		before := c.Stats()
		for i := 0; i < n; i++ {
			if hit {
				c.Read(0, 0)
				continue
			}
			w := next * cfg.LineWords
			c.Read(memory.PPage(w/memory.PageWords), uint32(w%memory.PageWords))
			next = (next + 1) % lines
		}
		after := c.Stats()
		if hits, misses := after.Hits-before.Hits, after.Misses-before.Misses; (hit && hits != uint64(n)) || (!hit && misses != uint64(n)) {
			return fmt.Errorf("cache: %d hits and %d misses in %d reads", hits, misses, n)
		}
		return nil
	}
}

// --- internal/mmu ----------------------------------------------------

// tlbEntries is the TLB size core.NewMachine gives every node.
const tlbEntries = 64

// tlbLookupMicro times TLB.Lookup hits cycling over a full TLB.
func tlbLookupMicro() func(int) error {
	t := mmu.NewTLB(tlbEntries)
	for vp := 0; vp < tlbEntries; vp++ {
		t.Insert(memory.VPage(vp), memory.GPage{Node: 1, Page: memory.PPage(vp)})
	}
	return func(n int) error {
		for i := 0; i < n; i++ {
			vp := memory.VPage(i % tlbEntries)
			if g, ok := t.Lookup(vp); !ok || g.Page != memory.PPage(vp) {
				return fmt.Errorf("tlb: lookup of page %d missed", vp)
			}
		}
		return nil
	}
}

// tlbInsertMicro times TLB.Insert of pages not yet cached, each one
// evicting the least recently used entry of a full TLB.
func tlbInsertMicro() func(int) error {
	t := mmu.NewTLB(tlbEntries)
	vp := memory.VPage(0)
	return func(n int) error {
		misses := t.Misses
		for i := 0; i < n; i++ {
			vp++
			t.Insert(vp, memory.GPage{Node: 1, Page: memory.PPage(vp)})
		}
		if t.Len() != tlbEntries && n >= tlbEntries {
			return fmt.Errorf("tlb: %d entries after %d inserts", t.Len(), n)
		}
		if _, ok := t.Lookup(vp); !ok || t.Misses != misses {
			return errors.New("tlb: last inserted page not cached")
		}
		return nil
	}
}
