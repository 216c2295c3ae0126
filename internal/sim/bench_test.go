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
// exercising the full schedule → siftUp → pop → siftDown → dispatch
// cycle with nothing else in the loop.
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
// allocations per event once the heap's backing array has grown to
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
	eng.RunLimit(500) // warm-up: goroutine stacks, heap array
	avg := testing.AllocsPerRun(20, func() { eng.RunLimit(200) })
	if avg != 0 {
		t.Fatalf("coroutine switch allocates %v objects per run, want 0", avg)
	}
	checkAlternation(t, log)
}
