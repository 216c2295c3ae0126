package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineEmptyRun(t *testing.T) {
	e := NewEngine()
	e.Run()
	if e.Now() != 0 {
		t.Fatalf("empty run moved clock to %d", e.Now())
	}
	if e.Processed() != 0 {
		t.Fatalf("empty run processed %d events", e.Processed())
	}
}

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("got %v want %v", got, want)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineFIFOTieBreak(t *testing.T) {
	// Events at the same time must run in scheduling order.
	e := NewEngine()
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Run()
	if len(got) != 100 {
		t.Fatalf("ran %d events, want 100", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("event %d ran out of order (got %d)", i, v)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var ticks []Cycles
	var tick func()
	tick = func() {
		ticks = append(ticks, e.Now())
		if len(ticks) < 5 {
			e.Schedule(7, tick)
		}
	}
	e.Schedule(7, tick)
	e.Run()
	if len(ticks) != 5 {
		t.Fatalf("got %d ticks, want 5", len(ticks))
	}
	for i, at := range ticks {
		if want := Cycles(7 * (i + 1)); at != want {
			t.Fatalf("tick %d at %d, want %d", i, at, want)
		}
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.ScheduleAt(5, func() {})
	})
	e.Run()
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	ran := 0
	e.Schedule(10, func() { ran++ })
	e.Schedule(20, func() { ran++ })
	e.Schedule(30, func() { ran++ })
	e.RunUntil(20)
	if ran != 2 {
		t.Fatalf("ran %d events by t=20, want 2", ran)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
	e.RunUntil(15) // no-op: clock never moves backward
	if e.Now() != 20 {
		t.Fatalf("clock moved backward to %d", e.Now())
	}
	e.Run()
	if ran != 3 || e.Now() != 30 {
		t.Fatalf("final ran=%d now=%d", ran, e.Now())
	}
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.Schedule(Cycles(i), func() {})
	}
	if n := e.RunLimit(4); n != 4 {
		t.Fatalf("RunLimit executed %d, want 4", n)
	}
	if n := e.RunLimit(100); n != 6 {
		t.Fatalf("RunLimit executed %d, want 6", n)
	}
}

// Property: for any set of delays, events fire in nondecreasing time
// order and the clock ends at the max delay.
func TestEngineOrderProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := NewEngine()
		var fired []Cycles
		for _, d := range delays {
			d := Cycles(d)
			e.Schedule(d, func() { fired = append(fired, d) })
		}
		e.Run()
		if len(fired) != len(delays) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		var max Cycles
		for _, d := range delays {
			if Cycles(d) > max {
				max = Cycles(d)
			}
		}
		return e.Now() == max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: an interleaved random schedule is deterministic — two runs
// with the same seed produce identical event traces.
func TestEngineDeterminism(t *testing.T) {
	trace := func(seed int64) []Cycles {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var out []Cycles
		var spawn func(depth int)
		spawn = func(depth int) {
			out = append(out, e.Now())
			if depth < 4 {
				n := rng.Intn(3)
				for i := 0; i < n; i++ {
					e.Schedule(Cycles(rng.Intn(50)), func() { spawn(depth + 1) })
				}
			}
		}
		for i := 0; i < 10; i++ {
			e.Schedule(Cycles(rng.Intn(100)), func() { spawn(0) })
		}
		e.Run()
		return out
	}
	a, b := trace(42), trace(42)
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// modelKey is an event's place in the dispatch order.
type modelKey struct {
	at   Cycles
	lane int32
	seq  uint64
}

// modelEvent is a pending event: its key and the id its sink sees.
type modelEvent struct {
	modelKey
	id int
}

func (a modelKey) less(b modelKey) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.lane != b.lane {
		return a.lane < b.lane
	}
	return a.seq < b.seq
}

// keyModel is the oracle of TestEngineKeyOrderModel: the pending
// events as a slice kept sorted by key, dispatched from the front. It
// also mirrors the engine's clock, current lane, per-lane draw
// counters and RunUntil horizon.
type keyModel struct {
	t       *testing.T
	rng     *rand.Rand
	e       *Engine
	pending []modelEvent
	laneSeq map[int32]uint64
	now     Cycles
	lane    int32
	horizon Cycles
	nextID  int
	// far counts events scheduled wheelSize or more cycles out.
	far int
}

// delay draws a scheduling delay from 0 to 3*wheelSize, weighted to
// short delays and to the wheel's edge.
func (m *keyModel) delay() Cycles {
	switch r := m.rng.Intn(10); {
	case r < 5:
		return Cycles(m.rng.Intn(64))
	case r < 7:
		return Cycles(m.rng.Intn(wheelSize))
	case r < 8:
		return wheelSize - 2 + Cycles(m.rng.Intn(4))
	default:
		return Cycles(m.rng.Intn(3*wheelSize + 1))
	}
}

// add files a new event under key k and returns its id, or ok=false
// when k is already pending.
func (m *keyModel) add(k modelKey) (id int, ok bool) {
	i := sort.Search(len(m.pending), func(i int) bool { return !m.pending[i].less(k) })
	if i < len(m.pending) && m.pending[i].modelKey == k {
		return 0, false
	}
	id = m.nextID
	m.nextID++
	m.pending = slices.Insert(m.pending, i, modelEvent{k, id})
	if k.at-m.now >= wheelSize {
		m.far++
	}
	return id, true
}

// schedule calls ScheduleEvent under lane and records the key the
// engine should draw for it.
func (m *keyModel) schedule(lane int32, d Cycles) {
	m.e.SetLane(lane)
	m.lane = lane
	id, _ := m.add(modelKey{at: m.now + d, lane: lane, seq: m.laneSeq[lane]})
	m.laneSeq[lane]++
	m.e.ScheduleEvent(d, m, id, nil)
}

// inject calls InjectEventAt with a random key. Its seq lies above
// every drawn seq, so on lanes 0-7 it sorts after drawn events and on
// lanes 8-15 it orders only against other injected keys, in an order
// unrelated to insertion.
func (m *keyModel) inject(d Cycles) {
	k := modelKey{at: m.now + d, lane: int32(m.rng.Intn(16)), seq: 1<<32 + uint64(m.rng.Int63n(1<<40))}
	if id, ok := m.add(k); ok {
		m.e.InjectEventAt(k.at, k.lane, k.seq, m, id, nil)
	}
}

// check compares Pending, NextEventAt and Now with the model.
func (m *keyModel) check(where string) {
	m.t.Helper()
	if got := m.e.Pending(); got != len(m.pending) {
		m.t.Fatalf("%s: Pending = %d, model has %d", where, got, len(m.pending))
	}
	at, ok := m.e.NextEventAt()
	if ok != (len(m.pending) > 0) || (ok && at != m.pending[0].at) {
		m.t.Fatalf("%s: NextEventAt = (%d, %v) with %d pending in the model", where, at, ok, len(m.pending))
	}
	if m.e.Now() != m.now {
		m.t.Fatalf("%s: Now = %d, model says %d", where, m.e.Now(), m.now)
	}
}

// advance calls AdvanceIf(d) and checks its answer against the model.
func (m *keyModel) advance(d Cycles) {
	want := m.now+d <= m.horizon && (len(m.pending) == 0 || m.pending[0].at > m.now+d)
	if got := m.e.AdvanceIf(d); got != want {
		m.t.Fatalf("AdvanceIf(%d) at %d = %v, model says %v", d, m.now, got, want)
	}
	if want {
		m.now += d
	}
}

// HandleEvent checks that the dispatched event is the model's least,
// then acts as a node would: it may switch lanes, advance the clock
// directly and schedule up to two more events.
func (m *keyModel) HandleEvent(id int, _ any) {
	if len(m.pending) == 0 {
		m.t.Fatalf("dispatched event %d, model has nothing pending", id)
	}
	if id != m.pending[0].id {
		m.t.Fatalf("dispatched event %d, model's next is %+v", id, m.pending[0])
	}
	k := m.pending[0].modelKey
	m.pending = m.pending[1:]
	m.now, m.lane = k.at, k.lane
	if m.e.Lane() != k.lane {
		m.t.Fatalf("dispatching %+v under lane %d", k, m.e.Lane())
	}
	m.check("dispatch")
	if m.rng.Intn(4) == 0 {
		m.advance(Cycles(m.rng.Intn(16)))
	}
	if len(m.pending) > 200 {
		return
	}
	// 0, 1 or 2 children with weights 2:2:1, so activity dies out
	// unless the driver keeps adding events.
	for n := m.rng.Intn(5) / 2; n > 0; n-- {
		lane := m.lane
		if m.rng.Intn(2) == 0 {
			lane = int32(m.rng.Intn(9)) - 1 // NoLane or 0-7
		}
		m.schedule(lane, m.delay())
	}
}

// TestEngineKeyOrderModel drives the engine with a random mix of
// ScheduleEvent under lanes changed by SetLane, InjectEventAt with
// out-of-order keys, delays up to three times the wheel's span (so the
// wheel wraps and the far heap fills), and interleaved Step, RunUntil
// and AdvanceIf calls, from outside the engine and from handlers. The
// dispatch sequence must be the model's sort by (at, lane, seq), and
// NextEventAt, Pending and Now must agree with it after every step.
func TestEngineKeyOrderModel(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		m := &keyModel{
			t:       t,
			rng:     rand.New(rand.NewSource(seed)),
			e:       NewEngine(),
			laneSeq: map[int32]uint64{},
			lane:    NoLane,
			horizon: ^Cycles(0),
		}
		for op := 0; op < 2000; op++ {
			switch r := m.rng.Intn(20); {
			case r < 6:
				lane := int32(m.rng.Intn(9)) - 1
				for n := 1 + m.rng.Intn(4); n > 0; n-- {
					m.schedule(lane, m.delay())
				}
			case r < 8:
				for n := 1 + m.rng.Intn(4); n > 0; n-- {
					m.inject(m.delay())
				}
			case r < 14:
				for n := 1 + m.rng.Intn(5); n > 0 && m.e.Step(); n-- {
					m.check("Step")
				}
			case r < 17:
				until := m.now + m.delay()
				m.horizon = until
				m.e.RunUntil(until)
				m.horizon = ^Cycles(0)
				if m.now < until {
					m.now = until
				}
				m.check("RunUntil")
				if at, ok := m.e.NextEventAt(); ok && at <= until {
					t.Fatalf("seed %d: RunUntil(%d) left an event at %d", seed, until, at)
				}
			default:
				m.advance(Cycles(m.rng.Intn(64)))
				m.check("AdvanceIf")
			}
		}
		m.e.Run()
		m.check("Run")
		if len(m.pending) != 0 {
			t.Fatalf("seed %d: %d events never dispatched", seed, len(m.pending))
		}
		if m.far == 0 || m.now < 3*wheelSize {
			t.Fatalf("seed %d: run stayed inside the wheel (%d far events, clock reached %d)", seed, m.far, m.now)
		}
	}
}
