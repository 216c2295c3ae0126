package mmu

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"plus/internal/memory"
	"plus/internal/node"
)

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(4)
	if _, hit := tlb.Lookup(5); hit {
		t.Fatal("empty TLB hit")
	}
	g := memory.GPage{Node: 1, Page: 2}
	tlb.Insert(5, g)
	got, hit := tlb.Lookup(5)
	if !hit || got != g {
		t.Fatalf("lookup = %v %v", got, hit)
	}
	if tlb.Hits != 1 || tlb.Misses != 1 {
		t.Fatalf("hits=%d misses=%d", tlb.Hits, tlb.Misses)
	}
}

func TestTLBLRUEviction(t *testing.T) {
	tlb := NewTLB(2)
	tlb.Insert(1, memory.GPage{Node: 0, Page: 1})
	tlb.Insert(2, memory.GPage{Node: 0, Page: 2})
	tlb.Lookup(1) // page 1 recently used; 2 is now LRU
	tlb.Insert(3, memory.GPage{Node: 0, Page: 3})
	if _, hit := tlb.Lookup(2); hit {
		t.Fatal("LRU entry survived eviction")
	}
	if _, hit := tlb.Lookup(1); !hit {
		t.Fatal("MRU entry evicted")
	}
}

func TestTLBInsertReplacesInPlace(t *testing.T) {
	// A remap of the same page must not leave a stale duplicate (the
	// competitive-replication regression).
	tlb := NewTLB(4)
	old := memory.GPage{Node: 3, Page: 0}
	nw := memory.GPage{Node: 0, Page: 9}
	tlb.Insert(7, old)
	tlb.Insert(7, nw)
	got, hit := tlb.Lookup(7)
	if !hit || got != nw {
		t.Fatalf("lookup after remap = %v", got)
	}
	if tlb.Len() != 1 {
		t.Fatalf("duplicate entries: len = %d", tlb.Len())
	}
}

func TestTLBInvalidateAndFlush(t *testing.T) {
	tlb := NewTLB(4)
	tlb.Insert(1, memory.GPage{Node: 0, Page: 1})
	tlb.Insert(2, memory.GPage{Node: 0, Page: 2})
	tlb.Invalidate(1)
	if _, hit := tlb.Lookup(1); hit {
		t.Fatal("invalidated entry hit")
	}
	tlb.Invalidate(99) // absent: no-op
	tlb.Flush()
	if tlb.Len() != 0 {
		t.Fatal("flush left entries")
	}
	if tlb.Shootdowns != 2 {
		t.Fatalf("shootdowns = %d", tlb.Shootdowns)
	}
}

func TestTableTranslateLevels(t *testing.T) {
	tbl := NewSized(2)
	g := memory.GPage{Node: 1, Page: 4}
	// Absent everywhere.
	if _, tlbHit, ok := tbl.Translate(9); tlbHit || ok {
		t.Fatal("translate of unmapped page succeeded")
	}
	tbl.Install(9, g)
	// Install primes the TLB: first translate is a TLB hit.
	if _, tlbHit, ok := tbl.Translate(9); !tlbHit || !ok {
		t.Fatal("install did not prime the TLB")
	}
	// Evict via capacity, then translate: table hit, TLB refill.
	tbl.Install(10, g)
	tbl.Install(11, g)
	got, tlbHit, ok := tbl.Translate(9)
	if tlbHit || !ok || got != g {
		t.Fatalf("post-eviction translate = %v %v %v", got, tlbHit, ok)
	}
	// And now it is cached again.
	if _, tlbHit, _ := tbl.Translate(9); !tlbHit {
		t.Fatal("refill did not cache")
	}
}

func TestTLBConsistencyProperty(t *testing.T) {
	// Property: after any insert sequence, every Lookup hit returns
	// the most recent mapping inserted for that page.
	f := func(ops []uint8) bool {
		tlb := NewTLB(4)
		last := make(map[memory.VPage]memory.GPage)
		for i, op := range ops {
			vp := memory.VPage(op % 8)
			g := memory.GPage{Node: 0, Page: memory.PPage(i)}
			tlb.Insert(vp, g)
			last[vp] = g
		}
		for vp, want := range last {
			if got, hit := tlb.Lookup(vp); hit && got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// stampTLB is the reference model for TLB: the original scan-and-stamp
// implementation, which scans every slot on each operation and evicts
// the valid entry with the oldest use stamp.
type stampTLB struct {
	seq                      uint64
	slots                    []stampEntry
	hits, misses, shootdowns uint64
}

type stampEntry struct {
	valid bool
	vp    memory.VPage
	g     memory.GPage
	used  uint64
}

func (t *stampTLB) lookup(vp memory.VPage) (memory.GPage, bool) {
	for i := range t.slots {
		e := &t.slots[i]
		if e.valid && e.vp == vp {
			t.seq++
			e.used = t.seq
			t.hits++
			return e.g, true
		}
	}
	t.misses++
	return memory.NilGPage, false
}

func (t *stampTLB) insert(vp memory.VPage, g memory.GPage) {
	t.seq++
	victim := -1
	for i := range t.slots {
		e := &t.slots[i]
		if e.valid && e.vp == vp {
			victim = i
			break
		}
		if victim < 0 && !e.valid {
			victim = i
		}
	}
	if victim < 0 {
		victim = 0
		for i := range t.slots {
			if t.slots[i].used < t.slots[victim].used {
				victim = i
			}
		}
	}
	t.slots[victim] = stampEntry{valid: true, vp: vp, g: g, used: t.seq}
}

func (t *stampTLB) invalidate(vp memory.VPage) {
	for i := range t.slots {
		if t.slots[i].valid && t.slots[i].vp == vp {
			t.slots[i].valid = false
			t.shootdowns++
			return
		}
	}
}

func (t *stampTLB) flush() {
	for i := range t.slots {
		t.slots[i].valid = false
	}
	t.shootdowns++
}

// order lists the valid entries most recently used first.
func (t *stampTLB) order() []stampEntry {
	var out []stampEntry
	for _, e := range t.slots {
		if e.valid {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].used > out[j].used })
	return out
}

// recency lists the TLB's entries most recently used first, checking
// the list's back links and that every entry is reachable through the
// index on the way.
func recency(t *testing.T, tlb *TLB) []stampEntry {
	t.Helper()
	var out []stampEntry
	prev := int32(-1)
	for i := tlb.head; i >= 0; i = tlb.slots[i].next {
		e := tlb.slots[i]
		if e.prev != prev {
			t.Fatalf("slot %d: prev = %d, want %d", i, e.prev, prev)
		}
		if s := tlb.index[tlb.find(e.vp)]; s != i+1 {
			t.Fatalf("page %d in slot %d indexed as %d", e.vp, i, s-1)
		}
		out = append(out, stampEntry{valid: true, vp: e.vp, g: e.gpage()})
		prev = i
		if len(out) > len(tlb.slots) {
			t.Fatal("recency list cycles")
		}
	}
	if tlb.tail != prev {
		t.Fatalf("tail = %d, want %d", tlb.tail, prev)
	}
	return out
}

// TestTLBLRUModel drives the O(1) TLB and the scan-and-stamp reference
// with the same random interleaving of Lookup, Insert, Invalidate and
// Flush, and after every step compares the cached mappings in recency
// order, every counter and Len.
func TestTLBLRUModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for capacity := 1; capacity <= 70; capacity++ {
		tlb := NewTLB(capacity)
		ref := &stampTLB{slots: make([]stampEntry, capacity)}
		// Pages span 3x the capacity, so hits, misses and evictions
		// all occur; a few far pages collide in the index differently.
		span := 3*capacity + 1
		for step := 0; step < 3000; step++ {
			vp := memory.VPage(rng.Intn(span))
			if rng.Intn(8) == 0 {
				vp += 1 << 20
			}
			g := memory.GPage{Node: node.ID(rng.Intn(1024) - 1), Page: memory.PPage(step)}
			var op string
			switch r := rng.Intn(100); {
			case r < 45:
				op = "lookup"
				got, hit := tlb.Lookup(vp)
				want, wantHit := ref.lookup(vp)
				if got != want || hit != wantHit {
					t.Fatalf("cap %d step %d: Lookup(%d) = %v %v, want %v %v", capacity, step, vp, got, hit, want, wantHit)
				}
			case r < 90:
				op = "insert"
				tlb.Insert(vp, g)
				ref.insert(vp, g)
			case r < 99:
				op = "invalidate"
				tlb.Invalidate(vp)
				ref.invalidate(vp)
			default:
				op = "flush"
				tlb.Flush()
				ref.flush()
			}
			got, want := recency(t, tlb), ref.order()
			if len(got) != len(want) {
				t.Fatalf("cap %d step %d (%s %d): %d entries, want %d", capacity, step, op, vp, len(got), len(want))
			}
			for i := range got {
				if got[i].vp != want[i].vp || got[i].g != want[i].g {
					t.Fatalf("cap %d step %d (%s %d): recency[%d] = %d→%v, want %d→%v", capacity, step, op, vp, i, got[i].vp, got[i].g, want[i].vp, want[i].g)
				}
			}
			if tlb.Len() != len(want) || tlb.Hits != ref.hits || tlb.Misses != ref.misses || tlb.Shootdowns != ref.shootdowns {
				t.Fatalf("cap %d step %d (%s %d): len/hits/misses/shootdowns = %d/%d/%d/%d, want %d/%d/%d/%d", capacity, step, op, vp,
					tlb.Len(), tlb.Hits, tlb.Misses, tlb.Shootdowns, len(want), ref.hits, ref.misses, ref.shootdowns)
			}
		}
	}
}

// BenchmarkTLBInsert times Insert of pages not yet cached, each one
// evicting the least recently used entry of a full 64-entry TLB.
func BenchmarkTLBInsert(b *testing.B) {
	const entries = 64
	tlb := NewTLB(entries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tlb.Insert(memory.VPage(i), memory.GPage{Page: memory.PPage(i)})
	}
	if n := min(b.N, entries); tlb.Len() != n {
		b.Fatalf("%d entries after %d inserts", tlb.Len(), b.N)
	}
}

// BenchmarkTLBLookup times Lookup hits cycling over a full 64-entry
// TLB.
func BenchmarkTLBLookup(b *testing.B) {
	const entries = 64
	tlb := NewTLB(entries)
	for vp := memory.VPage(0); vp < entries; vp++ {
		tlb.Insert(vp, memory.GPage{Page: memory.PPage(vp)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit := tlb.Lookup(memory.VPage(i % entries)); !hit {
			b.Fatalf("lookup of page %d missed", i%entries)
		}
	}
}
