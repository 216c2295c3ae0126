package sim

import "fmt"

// ShardSet runs K engines — one per mesh shard, each owning its nodes'
// events — under conservative lookahead. Cross-shard interaction
// happens only through messages with a fixed minimum link latency, so
// within a window of that width every shard's events are independent
// of what the other shards are concurrently doing: the earliest
// possible cross-shard arrival lies beyond the window by construction.
//
// Run proceeds in rounds. Each round picks the globally earliest
// pending event time T, lets every shard execute its events in
// [T, T+Window-1] on its own worker goroutine, then synchronizes at a
// barrier where the round's cross-shard messages are injected into the
// owning shards' queues (Drain) carrying the tie-break keys drawn at
// send time. Because every engine orders its queue by the (at, lane,
// seq) key — not by insertion order — the merged schedule is
// byte-identical to a single serial engine running the same program.
type ShardSet struct {
	// Engines are the per-shard event queues (len >= 1).
	Engines []*Engine
	// Window is the conservative lookahead in cycles: a lower bound on
	// the latency of any cross-shard message (for the PLUS mesh,
	// Base + PerHop). Must be >= 1.
	Window Cycles
	// Drain delivers all cross-shard messages sent during the finished
	// round into the destination shards' queues (InjectEventAt) and
	// returns how many it moved. It runs on the coordinating goroutine
	// with every worker quiescent.
	Drain func() int
	// AtBarrier, when non-nil, runs after each Drain with all shards
	// quiescent — a safe point for cross-shard inspection (runtime
	// invariant checks). It must not schedule events.
	AtBarrier func()
}

// Run executes rounds until every shard's queue is empty and no
// cross-shard mail remains.
func (s *ShardSet) Run() {
	k := len(s.Engines)
	if k == 0 {
		return
	}
	if s.Window < 1 {
		panic(fmt.Sprintf("sim: shard window %d < 1", s.Window))
	}
	start := make([]chan Cycles, k)
	done := make(chan int, k)
	for i, e := range s.Engines {
		start[i] = make(chan Cycles)
		go func(i int, e *Engine, start <-chan Cycles) {
			for h := range start {
				e.RunUntil(h)
				done <- i
			}
		}(i, e, start[i])
	}
	defer func() {
		for _, c := range start {
			close(c)
		}
	}()

	for {
		// Drain before picking T, not after the workers finish: mail can
		// exist before the first round (setup code sending cross-shard
		// messages), and the final round's mail must land before the
		// emptiness check decides the run is over.
		if s.Drain != nil {
			s.Drain()
		}
		if s.AtBarrier != nil {
			s.AtBarrier()
		}
		t, ok := s.nextEventTime()
		if !ok {
			return
		}
		h := t + s.Window - 1
		for _, c := range start {
			c <- h
		}
		for range s.Engines {
			<-done
		}
	}
}

// nextEventTime returns the earliest pending event time across all
// shards (mail is always drained before this runs, so queues are the
// complete picture).
func (s *ShardSet) nextEventTime() (Cycles, bool) {
	var min Cycles
	ok := false
	for _, e := range s.Engines {
		if at, has := e.NextEventAt(); has && (!ok || at < min) {
			min, ok = at, true
		}
	}
	return min, ok
}
