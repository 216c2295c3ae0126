package sim

import (
	"fmt"
	"iter"
)

// Coroutine models a simulated thread of control (an application thread
// running on a simulated processor). The body runs as an iter.Pull
// iterator on its own goroutine, entered and left by direct goroutine
// switches in the runtime. It never runs concurrently with the engine
// or with another coroutine: it runs only between an engine resume
// (next) and the next park (yield), so all simulated state can be
// accessed without locks.
//
// Only the goroutine stepping the coroutine's engine ever resumes it —
// the serial Run loop, or that engine's shard worker — because a body
// never steps an engine itself: it only schedules its wake and parks.
// A panic in the body is re-raised by next in that goroutine, so it
// surfaces from Engine.Run like a panic in any other event handler.
//
// Lifecycle:
//
//	co := sim.NewCoroutine(eng, "t0", body) // body starts parked
//	co.WakeAfter(0)                         // schedule first run
//	eng.Run()
//
// Inside body, the coroutine yields virtual time with WaitCycles, or
// parks indefinitely with Park (some event handler later calls
// WakeAfter). When body returns, Done() reports true.
type Coroutine struct {
	eng *Engine
	// next resumes the body until its next park or its return; yield,
	// the body's side of the pair, parks it.
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	done  bool
	// waking is true while a wake event for this coroutine is pending
	// in the engine's queue. It guards against double-resume.
	waking bool
	label  string
}

// NewCoroutine creates a coroutine that will execute body. The body
// does not run until the first WakeAfter; it is created parked.
func NewCoroutine(eng *Engine, label string, body func(*Coroutine)) *Coroutine {
	co := &Coroutine{eng: eng, label: label}
	co.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		co.yield = yield
		body(co)
		co.done = true
	})
	return co
}

// Label returns the diagnostic name given at creation.
func (co *Coroutine) Label() string { return co.label }

// Done reports whether the body has returned.
func (co *Coroutine) Done() bool { return co.done }

// Engine returns the engine this coroutine is bound to.
func (co *Coroutine) Engine() *Engine { return co.eng }

// scheduleWake arms a resume event after delay cycles. The coroutine
// itself is the event's sink, so a wake allocates nothing.
func (co *Coroutine) scheduleWake(delay Cycles) {
	if co.done {
		panic("sim: wake of finished coroutine " + co.label)
	}
	if co.waking {
		panic("sim: double wake of coroutine " + co.label)
	}
	co.waking = true
	co.eng.ScheduleEvent(delay, co, 0, nil)
}

// HandleEvent implements EventSink: the fired wake event hands control
// to the coroutine and blocks the engine until it parks again (or
// finishes), preserving the single-activity invariant.
func (co *Coroutine) HandleEvent(int, any) {
	// Clear before transferring control: the body may re-arm its own
	// wake (WaitCycles) during this slice.
	co.waking = false
	co.next()
}

// WakeAfter schedules the coroutine to resume after delay cycles.
// It panics on a double wake or a wake of a finished coroutine, to
// surface protocol bugs rather than silently double-running a thread.
func (co *Coroutine) WakeAfter(delay Cycles) { co.scheduleWake(delay) }

// Wakeable reports whether WakeAfter may be called: the coroutine has
// not finished and has no wake pending. (A coroutine that is currently
// executing its slice is nominally wakeable, but only the coroutine
// itself can observe that state, and waking oneself is meaningless.)
func (co *Coroutine) Wakeable() bool { return !co.done && !co.waking }

// Park suspends the coroutine until some event calls WakeAfter.
// Must be called from the coroutine's own body.
func (co *Coroutine) Park() { co.yield(struct{}{}) }

// WaitCycles suspends the coroutine for d cycles of virtual time.
// Must be called from the coroutine's own body. When no other event is
// due within d cycles the wait is a direct clock advance — the
// schedule-wake/park round trip (two goroutine switches) happens only
// when other simulated activity must run first.
func (co *Coroutine) WaitCycles(d Cycles) {
	if co.eng.AdvanceIf(d) {
		return
	}
	co.scheduleWake(d)
	co.Park()
}

// String implements fmt.Stringer for diagnostics.
func (co *Coroutine) String() string {
	return fmt.Sprintf("coroutine(%s done=%v waking=%v)", co.label, co.done, co.waking)
}
