package sim

import "testing"

func TestCoroutineBasic(t *testing.T) {
	e := NewEngine()
	var marks []Cycles
	co := NewCoroutine(e, "t", func(co *Coroutine) {
		marks = append(marks, e.Now())
		co.WaitCycles(10)
		marks = append(marks, e.Now())
		co.WaitCycles(5)
		marks = append(marks, e.Now())
	})
	co.WakeAfter(3)
	e.Run()
	want := []Cycles{3, 13, 18}
	if len(marks) != len(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	for i := range want {
		if marks[i] != want[i] {
			t.Fatalf("marks = %v, want %v", marks, want)
		}
	}
	if !co.Done() {
		t.Fatal("coroutine not done after Run")
	}
}

func TestCoroutineParkWake(t *testing.T) {
	e := NewEngine()
	var resumedAt Cycles
	co := NewCoroutine(e, "sleeper", func(co *Coroutine) {
		co.Park()
		resumedAt = e.Now()
	})
	co.WakeAfter(0)
	e.Schedule(100, func() {
		if !co.Wakeable() {
			t.Error("parked coroutine should be wakeable")
		}
		co.WakeAfter(7)
	})
	e.Run()
	if resumedAt != 107 {
		t.Fatalf("resumed at %d, want 107", resumedAt)
	}
}

func TestCoroutineInterleaving(t *testing.T) {
	// Two coroutines with different periods must interleave in strict
	// virtual-time order, never concurrently.
	e := NewEngine()
	var order []string
	running := false
	body := func(name string, period Cycles, n int) func(*Coroutine) {
		return func(co *Coroutine) {
			for i := 0; i < n; i++ {
				if running {
					t.Error("two coroutines running at once")
				}
				running = true
				order = append(order, name)
				running = false
				co.WaitCycles(period)
			}
		}
	}
	a := NewCoroutine(e, "a", body("a", 10, 3))
	b := NewCoroutine(e, "b", body("b", 4, 5))
	a.WakeAfter(0)
	b.WakeAfter(0)
	e.Run()
	// a runs at 0,10,20; b at 0,4,8,12,16. Ties break by schedule order
	// (a woken first at t=0).
	want := []string{"a", "b", "b", "b", "a", "b", "b", "a"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestCoroutineDoubleWakePanics(t *testing.T) {
	e := NewEngine()
	co := NewCoroutine(e, "t", func(co *Coroutine) { co.Park() })
	co.WakeAfter(5)
	defer func() {
		if recover() == nil {
			t.Error("double wake did not panic")
		}
	}()
	co.WakeAfter(5)
}

func TestCoroutineWakeFinishedPanics(t *testing.T) {
	e := NewEngine()
	co := NewCoroutine(e, "t", func(co *Coroutine) {})
	co.WakeAfter(0)
	e.Run()
	if !co.Done() {
		t.Fatal("not done")
	}
	defer func() {
		if recover() == nil {
			t.Error("waking a finished coroutine did not panic")
		}
	}()
	co.WakeAfter(0)
}

func TestManyCoroutinesDeterministic(t *testing.T) {
	run := func() []int {
		e := NewEngine()
		var out []int
		for i := 0; i < 50; i++ {
			i := i
			co := NewCoroutine(e, "w", func(co *Coroutine) {
				co.WaitCycles(Cycles(i % 7))
				out = append(out, i)
				co.WaitCycles(Cycles(i % 3))
				out = append(out, -i)
			})
			co.WakeAfter(Cycles(i % 5))
		}
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) != 100 {
		t.Fatalf("lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// runRecovered runs the engine and returns the value of any panic that
// escapes Run.
func runRecovered(e *Engine) (p any) {
	defer func() { p = recover() }()
	e.Run()
	return nil
}

// TestCoroutinePanicReachesRunCaller checks that a panic in a
// coroutine's body surfaces from Engine.Run in the caller's goroutine,
// where it can be recovered, rather than crashing the process.
func TestCoroutinePanicReachesRunCaller(t *testing.T) {
	e := NewEngine()
	co := NewCoroutine(e, "t", func(co *Coroutine) {
		co.Park()
		panic("body")
	})
	co.WakeAfter(0)
	e.Schedule(20, func() { co.WakeAfter(0) })
	if p := runRecovered(e); p != "body" {
		t.Fatalf("Run panicked with %v, want %q", p, "body")
	}
	if e.Now() != 20 {
		t.Fatalf("panic surfaced at cycle %d, want 20", e.Now())
	}
}

// TestHandlerPanicWhileCoroutineWaits checks the same for a panic in
// an event handler that fires while a coroutine waits for its wake:
// the handler runs on Run's goroutine, never on the coroutine's, and
// the coroutine stays parked.
func TestHandlerPanicWhileCoroutineWaits(t *testing.T) {
	e := NewEngine()
	co := NewCoroutine(e, "t", func(co *Coroutine) {
		e.Schedule(3, func() { panic("handler") })
		co.WaitCycles(10)
		t.Error("body resumed past a panicking handler")
	})
	co.WakeAfter(0)
	if p := runRecovered(e); p != "handler" {
		t.Fatalf("Run panicked with %v, want %q", p, "handler")
	}
	if e.Now() != 3 {
		t.Fatalf("panic surfaced at cycle %d, want 3", e.Now())
	}
}
