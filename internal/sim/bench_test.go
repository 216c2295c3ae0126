package sim

import "testing"

// BenchmarkEngineSchedule measures raw event throughput on the legacy
// closure API (funcSink adapter).
func BenchmarkEngineSchedule(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(Cycles(i%64), func() {})
		if i%1024 == 1023 {
			e.Run()
		}
	}
	e.Run()
}

// BenchmarkEngineChain measures self-rescheduling closure chains (the
// legacy pattern the typed path replaces on hot paths).
func BenchmarkEngineChain(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	n := b.N
	var tick func()
	tick = func() {
		if n > 0 {
			n--
			e.Schedule(3, tick)
		}
	}
	e.Schedule(1, tick)
	b.ResetTimer()
	e.Run()
}

// chainSink reschedules itself until its budget is exhausted,
// exercising the full schedule → bucket append → bitmap scan → pop →
// dispatch cycle with a queue one event deep and nothing else in the
// loop.
type chainSink struct {
	eng       *Engine
	remaining int
}

func (s *chainSink) HandleEvent(int, any) {
	if s.remaining > 0 {
		s.remaining--
		s.eng.ScheduleEvent(1, s, 0, nil)
	}
}

// BenchmarkEngineHotPath measures the typed event path: one event
// scheduled and dispatched per iteration step, no closures, no boxing.
func BenchmarkEngineHotPath(b *testing.B) {
	b.ReportAllocs()
	eng := NewEngine()
	s := &chainSink{eng: eng}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.remaining = 1000
		eng.ScheduleEvent(1, s, 0, nil)
		eng.Run()
	}
}

// holdDelays is the scheduling-delay mix of sssp-16x16 (seed 1, all
// 5.1 M events of its four graphs), in per-mille weights: 14% of events
// are zero-delay, most of the rest sit between 8 and 52 cycles (cache
// and mesh latencies), and about 0.2% lie 1024 or more cycles out.
var holdDelays = func() (t [1000]Cycles) {
	i := 0
	for _, w := range []struct {
		d Cycles
		n int
	}{
		{0, 143}, {8, 160}, {10, 119}, {12, 171}, {14, 28}, {20, 10},
		{24, 30}, {25, 119}, {32, 33}, {38, 32}, {46, 26}, {52, 113},
		{100, 2}, {200, 12}, {1500, 2},
	} {
		for ; w.n > 0; w.n-- {
			t[i] = w.d
			i++
		}
	}
	return t
}()

// holdSink is the hold model: each dispatched event runs as a random
// node's activity and schedules one replacement with a delay drawn
// from holdDelays, so the queue stays at its resident depth.
type holdSink struct {
	eng *Engine
	x   uint64
}

func (h *holdSink) HandleEvent(int, any) {
	h.x = h.x*6364136223846793005 + 1442695040888963407
	h.eng.SetLane(int32(h.x >> 56))
	h.eng.ScheduleEvent(holdDelays[(h.x>>32)%uint64(len(holdDelays))], h, 0, nil)
}

// BenchmarkEngineHold measures one schedule plus one dispatch with the
// queue held at sssp-16x16's resident depth of about 270 events.
func BenchmarkEngineHold(b *testing.B) {
	const depth = 270
	b.ReportAllocs()
	eng := NewEngine()
	h := &holdSink{eng: eng, x: 1}
	for i := 0; i < depth; i++ {
		h.HandleEvent(0, nil)
	}
	eng.RunLimit(10 * depth) // warm-up: reach the steady-state mix
	b.ResetTimer()
	eng.RunLimit(uint64(b.N))
	b.StopTimer()
	if eng.Pending() != depth {
		b.Fatalf("queue depth drifted to %d, want %d", eng.Pending(), depth)
	}
}

// alternatingPair builds two coroutines that wait two cycles at a
// time, a at even cycles and b at odd ones, so each wait finds the
// other's wake due first and must park: every wait is a real switch.
// Each resume appends its coroutine's name to log.
func alternatingPair(e *Engine, n int, log *[]byte) {
	body := func(id byte) func(*Coroutine) {
		return func(co *Coroutine) {
			for i := 0; i < n; i++ {
				co.WaitCycles(2)
				*log = append(*log, id)
			}
		}
	}
	NewCoroutine(e, "a", body('a')).WakeAfter(0)
	NewCoroutine(e, "b", body('b')).WakeAfter(1)
}

// checkAlternation fails unless the resume log reads a, b, a, b, ...
func checkAlternation(tb testing.TB, log []byte) {
	tb.Helper()
	for i, id := range log {
		if id != "ab"[i%2] {
			tb.Fatalf("resume %d went to %c: the coroutines did not alternate", i, id)
		}
	}
}

// BenchmarkCoroutineHandoff measures one WaitCycles that parks and is
// resumed after the other coroutine's slice: a coroutine switch.
func BenchmarkCoroutineHandoff(b *testing.B) {
	b.ReportAllocs()
	e := NewEngine()
	log := make([]byte, 0, 2*b.N)
	alternatingPair(e, b.N, &log)
	b.ResetTimer()
	e.Run()
	b.StopTimer()
	checkAlternation(b, log)
}

// TestScheduleEventAllocFree pins the typed event path at zero
// allocations per event once the event slab has grown to
// working size — the regression guard for reintroducing a per-event
// closure or interface box.
func TestScheduleEventAllocFree(t *testing.T) {
	eng := NewEngine()
	s := &chainSink{eng: eng}
	// Warm-up: grow the event array.
	s.remaining = 256
	eng.ScheduleEvent(1, s, 0, nil)
	eng.Run()
	avg := testing.AllocsPerRun(50, func() {
		s.remaining = 100
		eng.ScheduleEvent(1, s, 0, nil)
		eng.Run()
	})
	if avg != 0 {
		t.Fatalf("typed event path allocates %v objects per run, want 0", avg)
	}
}

// TestCoroutineWakeAllocFree pins the coroutine wake path (the
// coroutine is its own event sink) at zero allocations per wake, with
// two coroutines that switch on every wait.
func TestCoroutineWakeAllocFree(t *testing.T) {
	const waits = 1 << 20
	eng := NewEngine()
	log := make([]byte, 0, 2*waits)
	alternatingPair(eng, waits, &log)
	eng.RunLimit(500) // warm-up: goroutine stacks, event slab
	avg := testing.AllocsPerRun(20, func() { eng.RunLimit(200) })
	if avg != 0 {
		t.Fatalf("coroutine switch allocates %v objects per run, want 0", avg)
	}
	checkAlternation(t, log)
}
