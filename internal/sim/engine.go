// Package sim provides a deterministic discrete-event simulation engine
// with cooperative coroutines.
//
// The engine owns a priority queue of timed events and a virtual clock
// measured in processor cycles. Exactly one piece of simulated activity
// runs at any instant: either an event handler or a coroutine that an
// event handler resumed. Coroutines (used to model application threads
// running on simulated processors) are iter.Pull iterators: each body
// runs on its own goroutine and yields whenever it needs virtual time
// to pass; a scheduled event resumes it with a direct goroutine switch,
// and the engine's loop continues only once the body yields again.
// The result is a total, reproducible order of all simulated activity:
// events dispatch in (at, lane, seq) order, described below.
//
// Events are stored by value and dispatch to an EventSink, so
// scheduling allocates nothing on the hot paths (coroutine resume,
// message delivery, component timers). The closure-based
// Schedule/ScheduleAt API remains for cold paths and tests; it costs
// whatever the caller's closure costs, but no per-event node.
//
// The queue is a timing wheel of per-cycle buckets covering the next
// wheelSize cycles, with a binary heap holding only the rare events due
// further out (see Engine).
//
// Ties in virtual time break on a (lane, per-lane sequence) key rather
// than a global scheduling counter. A lane is the node whose simulated
// activity scheduled the event (NoLane for machine-level setup), and
// each lane draws from its own monotone counter. Because a lane's
// activity — and therefore its draw order — depends only on that
// node's own state and the messages it receives, the key of every
// event is identical whether the simulation runs on one event queue or
// on many shard queues exchanging cross-shard events at lookahead
// barriers. That property is what makes the sharded engine (shards.go)
// byte-identical to the serial one.
package sim

import (
	"fmt"
	"math/bits"
)

// Cycles is a quantity of virtual time, measured in processor cycles.
// In the PLUS implementation one cycle is 40 ns (25 MHz).
type Cycles uint64

// EventSink receives typed events from the engine. Implementations are
// the simulator's hot-path actors: coroutine resume (*Coroutine),
// message delivery (*mesh.Mesh), and component timers (the coherence
// manager). The (kind, data) pair is sink-defined; data is nil or a
// pointer-shaped value, so dispatching boxes nothing.
type EventSink interface {
	HandleEvent(kind int, data any)
}

// NoLane is the lane of machine-level activity: setup scheduling done
// before the engine runs, and test closures driven outside any node's
// simulated activity. It sorts before every node lane.
const NoLane int32 = -1

// event is one pending entry, stored by value in the wheel's slab or
// the far heap: scheduling allocates no per-event node. Events compare
// by (at, lane, seq): same-time events from different lanes order by
// lane, same-lane events by their lane's draw order.
type event struct {
	at   Cycles
	seq  uint64
	sink EventSink
	data any
	kind int
	lane int32
	// next links a slab slot to the following slot of its bucket, or
	// of the free list, as slot index + 1; 0 ends the list.
	next int32
}

// before reports whether a dispatches before b in the (at, lane, seq)
// order. (lane, seq) is unique, so the order is total: every event has
// one place in the dispatch sequence regardless of insertion order,
// which is what lets barrier injection merge shard queues without a
// serialization step.
func before(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}

// wheelSize is the number of one-cycle buckets in the timing wheel, the
// span of scheduling delays it holds. On the perfbench workloads at
// seed 1 every delay is below 4096 cycles, and 99.8% of them (99.9% on
// beam-cs40) are below 1024; the rest go to the far heap. DESIGN §8
// has the histogram.
const (
	wheelSize  = 1024
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64
)

// funcSink adapts the closure-based Schedule API onto the typed event
// path: data carries the func() itself (pointer-shaped, not boxed).
type funcSink struct{}

func (funcSink) HandleEvent(_ int, data any) { data.(func())() }

// Engine is a deterministic discrete-event scheduler.
// The zero value is not usable; call NewEngine.
//
// Pending events live in two stores. The timing wheel holds every
// event due in [now, now+wheelSize): bucket at&wheelMask is a list of
// slab slots kept in (lane, seq) order, and because the window is
// exactly wheelSize cycles wide and never moves backward, each bucket
// holds a single timestamp. An occupancy bitmap finds the next busy
// bucket. The far heap, a binary min-heap, holds the rare events due
// wheelSize or more cycles out; they stay there until dispatched, and
// Step takes whichever of the wheel's earliest head and the heap's root
// comes first by (at, lane, seq). No event ever migrates from one
// store to the other.
type Engine struct {
	now Cycles
	// curLane is the lane of the activity currently executing: set by
	// Step from each dispatched event, including a coroutine's wake, so
	// a resumed slice schedules under its own lane. Events scheduled
	// during an activity inherit it as their tie-break lane.
	curLane int32
	// laneSeq holds one monotone draw counter per lane, indexed by
	// lane+1 (so NoLane lands on index 0). Grown on demand.
	laneSeq []uint64
	// slab stores the wheel's events; free lists its unused slots.
	// Slots are named by index + 1 everywhere, so 0 means "none" and an
	// all-zero wheel is empty without initialization.
	slab []event
	free int32
	// head and tail are each bucket's first and last slot.
	head, tail [wheelSize]int32
	// busy has bit b set iff bucket b is non-empty.
	busy [wheelWords]uint64
	// inWheel counts the wheel's events.
	inWheel int
	// far is a binary min-heap, by (at, lane, seq), of the events due
	// wheelSize or more cycles after the time they were scheduled.
	far []event
	// processed counts executed events, for diagnostics and runaway
	// detection in tests.
	processed uint64
	// lastAct is the time of the most recent simulated activity: the
	// last dispatched event, or the clock position a successful
	// AdvanceIf moved to. Unlike now, it is not dragged forward by
	// RunUntil's horizon, so it reports true elapsed work in sharded
	// rounds.
	lastAct Cycles
	// horizon bounds AdvanceIf while RunUntil is active: simulated
	// activity may not move the clock past the instant the caller asked
	// the engine to stop at.
	horizon Cycles
	// onEvent, when set, observes every dispatched event (at, kind)
	// just before its sink runs — the observability layer's engine
	// probe. Nil (one comparison per Step) when tracing is off.
	onEvent func(at Cycles, kind int)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{horizon: ^Cycles(0), curLane: NoLane}
}

// Now returns the current virtual time.
func (e *Engine) Now() Cycles { return e.now }

// LastActivityAt returns the time of the most recent simulated
// activity (last dispatched event or direct clock advance). RunUntil
// may leave Now beyond it; elapsed-time reporting wants this value.
func (e *Engine) LastActivityAt() Cycles { return e.lastAct }

// Lane returns the lane of the activity currently executing (NoLane
// outside event dispatch).
func (e *Engine) Lane() int32 { return e.curLane }

// SetLane declares that the remainder of the current dispatch executes
// as the given node's activity. The mesh calls it when a delivery
// event — scheduled under the sender's lane — starts running at the
// destination, so everything the destination schedules draws from the
// destination's own counter.
func (e *Engine) SetLane(lane int32) { e.curLane = lane }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events not yet executed.
func (e *Engine) Pending() int { return e.inWheel + len(e.far) }

// SetOnEvent installs a hook observing every event dispatch (nil to
// remove). The hook must not schedule or mutate simulation state; it
// exists for instrumentation (stats.EvEngineDispatch).
func (e *Engine) SetOnEvent(fn func(at Cycles, kind int)) { e.onEvent = fn }

// Schedule runs fn after delay cycles of virtual time.
func (e *Engine) Schedule(delay Cycles, fn func()) {
	e.ScheduleEventAt(e.now+delay, funcSink{}, 0, fn)
}

// ScheduleAt runs fn at absolute virtual time at. Scheduling in the
// past is a programming error and panics: the engine's clock never
// moves backward.
func (e *Engine) ScheduleAt(at Cycles, fn func()) {
	e.ScheduleEventAt(at, funcSink{}, 0, fn)
}

// ScheduleEvent delivers (kind, data) to sink after delay cycles.
// This is the allocation-free scheduling path.
func (e *Engine) ScheduleEvent(delay Cycles, sink EventSink, kind int, data any) {
	e.ScheduleEventAt(e.now+delay, sink, kind, data)
}

// ScheduleEventAt delivers (kind, data) to sink at absolute virtual
// time at. Scheduling in the past panics.
func (e *Engine) ScheduleEventAt(at Cycles, sink EventSink, kind int, data any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	lane, seq := e.DrawKey()
	e.push(at, lane, seq, sink, kind, data)
}

// DrawKey draws the tie-break key the next scheduling by the current
// activity would receive: the current lane and the next value of its
// counter. The mesh uses it to stamp cross-shard messages at send
// time, so an event injected into another shard's queue at a barrier
// carries exactly the key it would have had on a single shared queue.
func (e *Engine) DrawKey() (lane int32, seq uint64) {
	idx := int(e.curLane) + 1
	for idx >= len(e.laneSeq) {
		e.laneSeq = append(e.laneSeq, 0)
	}
	seq = e.laneSeq[idx]
	e.laneSeq[idx]++
	return e.curLane, seq
}

// InjectEventAt enqueues an event carrying an explicit tie-break key
// drawn on another engine (DrawKey at send time). The sharded runner
// calls it at lookahead barriers to move cross-shard events into the
// owning shard's queue; conservative lookahead guarantees at has not
// passed.
func (e *Engine) InjectEventAt(at Cycles, lane int32, seq uint64, sink EventSink, kind int, data any) {
	if at < e.now {
		panic(fmt.Sprintf("sim: inject at %d before now %d", at, e.now))
	}
	e.push(at, lane, seq, sink, kind, data)
}

// push files an event (at >= now) in the wheel, or in the far heap
// when it is due wheelSize or more cycles out.
func (e *Engine) push(at Cycles, lane int32, seq uint64, sink EventSink, kind int, data any) {
	if at-e.now >= wheelSize {
		e.far = append(e.far, event{at: at, lane: lane, seq: seq, kind: kind, sink: sink, data: data})
		e.siftUp(len(e.far) - 1)
		return
	}
	s := e.free
	if s == 0 {
		e.slab = append(e.slab, event{})
		s = int32(len(e.slab))
	} else {
		e.free = e.slab[s-1].next
	}
	p := &e.slab[s-1]
	p.at, p.lane, p.seq, p.kind, p.sink, p.data, p.next = at, lane, seq, kind, sink, data, 0
	b := uint(at) & wheelMask
	switch t := e.tail[b]; {
	case t == 0:
		e.head[b], e.tail[b] = s, s
		e.busy[b/64] |= 1 << (b % 64)
	case before(&e.slab[t-1], p):
		// The new key sorts last: append.
		e.slab[t-1].next = s
		e.tail[b] = s
	default:
		// Sorted insert; p sorts before the tail, so the walk stops
		// inside the list.
		link := &e.head[b]
		for !before(p, &e.slab[*link-1]) {
			link = &e.slab[*link-1].next
		}
		p.next = *link
		*link = s
	}
	e.inWheel++
}

// wheelFirst returns the bucket of the wheel's earliest event; the
// wheel must not be empty. It looks first at the rest of the bitmap
// word holding now's bucket, where 91% of sssp-16x16's dispatches are
// found, then scans the other words, wrapping around: the buckets
// below now's in its own word hold the window's last cycles, so the
// lap reaches them last.
func (e *Engine) wheelFirst() uint {
	b := uint(e.now) & wheelMask
	w := b / 64
	if m := e.busy[w] >> (b % 64); m != 0 {
		return b + uint(bits.TrailingZeros64(m))
	}
	for i := uint(1); i <= wheelWords; i++ {
		w2 := (w + i) % wheelWords
		if m := e.busy[w2]; m != 0 {
			return w2*64 + uint(bits.TrailingZeros64(m))
		}
	}
	panic("sim: wheel count and occupancy bitmap disagree")
}

// first returns the earliest pending event, or nil when nothing is
// pending, and where it is: the far heap's root, or else bucket b of
// the wheel.
func (e *Engine) first() (ev *event, b uint, far bool) {
	if e.inWheel > 0 {
		b = e.wheelFirst()
		ev = &e.slab[e.head[b]-1]
	}
	if len(e.far) > 0 && (ev == nil || before(&e.far[0], ev)) {
		return &e.far[0], 0, true
	}
	return ev, b, false
}

// NextEventAt returns the time of the earliest pending event, or
// ok=false when the queue is empty.
func (e *Engine) NextEventAt() (at Cycles, ok bool) {
	if ev, _, _ := e.first(); ev != nil {
		return ev.at, true
	}
	return 0, false
}

func (e *Engine) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&e.far[i], &e.far[parent]) {
			break
		}
		e.far[i], e.far[parent] = e.far[parent], e.far[i]
		i = parent
	}
}

func (e *Engine) siftDown(i int) {
	n := len(e.far)
	for {
		child := 2*i + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && before(&e.far[r], &e.far[child]) {
			child = r
		}
		if !before(&e.far[child], &e.far[i]) {
			return
		}
		e.far[i], e.far[child] = e.far[child], e.far[i]
		i = child
	}
}

// AdvanceIf advances the clock by d and reports whether it did: it
// succeeds only when nothing else is due first — no pending event in
// [now, now+d] and now+d does not cross the RunUntil horizon.
// Coroutines use it to skip the schedule-wake/park handoff when the
// wake would have been the very next event anyway; the observable
// schedule (times, and the relative order of all remaining events) is
// identical to the slow path, so determinism is unaffected: the
// skipped wake would have drawn the next key of the coroutine's lane,
// and every later draw of that lane is shifted by one uniformly.
func (e *Engine) AdvanceIf(d Cycles) bool {
	t := e.now + d
	if t > e.horizon {
		return false
	}
	if e.Pending() > 0 {
		if ev, _, _ := e.first(); ev.at <= t {
			return false
		}
	}
	e.now = t
	e.lastAct = t
	return true
}

// Step executes the single earliest pending event and returns true, or
// returns false if no events remain.
func (e *Engine) Step() bool { return e.step(^Cycles(0)) }

// step executes the earliest pending event if it is due at or before
// limit, and reports whether it did.
func (e *Engine) step(limit Cycles) bool {
	p, b, far := e.first()
	if p == nil || p.at > limit {
		return false
	}
	at, lane, kind, sink, data := p.at, p.lane, p.kind, p.sink, p.data
	if far {
		n := len(e.far) - 1
		e.far[0] = e.far[n]
		e.far[n] = event{} // drop sink/data references for the GC
		e.far = e.far[:n]
		if n > 1 {
			e.siftDown(0)
		}
	} else {
		s := e.head[b]
		if e.head[b] = p.next; p.next == 0 {
			e.tail[b] = 0
			e.busy[b/64] &^= 1 << (b % 64)
		}
		p.sink, p.data, p.next = nil, nil, e.free // drop references for the GC
		e.free = s
		e.inWheel--
	}
	e.now = at
	e.lastAct = at
	e.curLane = lane
	e.processed++
	if e.onEvent != nil {
		e.onEvent(at, kind)
	}
	sink.HandleEvent(kind, data)
	return true
}

// Run executes events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time <= t, then sets the clock to t.
// Events scheduled beyond t remain pending.
func (e *Engine) RunUntil(t Cycles) {
	prev := e.horizon
	e.horizon = t
	for e.step(t) {
	}
	e.horizon = prev
	if e.now < t {
		e.now = t
	}
}

// RunLimit executes at most n events; it returns the number executed.
// Useful as a runaway backstop in tests.
func (e *Engine) RunLimit(n uint64) uint64 {
	var i uint64
	for ; i < n; i++ {
		if !e.Step() {
			break
		}
	}
	return i
}
