package mmu

import (
	"plus/internal/memory"
	"plus/internal/node"
)

// TLB models the processor's translation lookaside buffer over the
// node's page table: a small fully-associative LRU cache of virtual→
// global-physical page mappings. The paper leans on it in §2.4 —
// deleting a page copy forces every node to "update their address
// translation tables and flush their TLBs".
//
// The replacement policy is exact LRU, kept in O(1) per operation the
// way a hardware CAM with a recency stack would: the valid entries
// form a doubly linked list over the slot array, most recently used
// at the head, and a linear-probing table of buckets (a power of two
// at least twice the capacity) maps a virtual page to its slot, so
// neither Lookup nor Insert scans the slots.
type TLB struct {
	slots []tlbEntry
	// index maps a page to its slot: each bucket holds slot+1, 0 is
	// empty. Deletion shifts later colliders back (no tombstones), so
	// a probe always ends at the first empty bucket.
	index []int32
	mask  uint32
	shift uint32
	// head and tail are the most and least recently used slots (-1
	// when empty). n counts valid entries; slots [used, cap) have
	// never been filled, and free chains slots freed by Invalidate
	// through their next field (-1 ends the chain).
	head, tail int32
	n, used    int32
	free       int32
	// Hits and Misses count lookups (misses that hit the page table
	// pay the refill cost; misses that miss it fault to the kernel).
	Hits, Misses uint64
	// Shootdowns counts explicit invalidations and flushes.
	Shootdowns uint64
}

// tlbEntry is one TLB slot: the cached translation, stored as 32-bit
// fields the way the hardware holds it, and the slot's recency links.
type tlbEntry struct {
	vp         memory.VPage
	node       int32
	page       memory.PPage
	prev, next int32
}

func (e *tlbEntry) set(g memory.GPage) { e.node, e.page = int32(g.Node), g.Page }

func (e *tlbEntry) gpage() memory.GPage {
	return memory.GPage{Node: node.ID(e.node), Page: e.page}
}

// NewTLB builds a TLB with the given capacity (entries).
func NewTLB(entries int) *TLB {
	t := &TLB{}
	t.init(entries)
	return t
}

// init sizes an empty TLB of the given capacity (at least 1).
func (t *TLB) init(entries int) {
	if entries < 1 {
		entries = 1
	}
	bits := uint32(1)
	for 1<<bits < 2*entries {
		bits++
	}
	t.slots = make([]tlbEntry, entries)
	t.index = make([]int32, 1<<bits)
	t.mask = 1<<bits - 1
	t.shift = 32 - bits
	t.head, t.tail, t.free = -1, -1, -1
}

// bucket is vp's home bucket: Fibonacci hashing, the top bits of the
// product, so consecutive pages spread across the table.
func (t *TLB) bucket(vp memory.VPage) uint32 {
	return uint32(vp) * 0x9E3779B9 >> t.shift
}

// find returns the bucket holding vp's slot+1, or the empty bucket
// where vp would go.
func (t *TLB) find(vp memory.VPage) uint32 {
	b := t.bucket(vp)
	for {
		s := t.index[b]
		if s == 0 || t.slots[s-1].vp == vp {
			return b
		}
		b = (b + 1) & t.mask
	}
}

// unindex empties bucket b and shifts any later entry of its probe run
// back into the gap, so every remaining entry stays reachable from its
// home bucket.
func (t *TLB) unindex(b uint32) {
	for {
		t.index[b] = 0
		j := b
		for {
			j = (j + 1) & t.mask
			s := t.index[j]
			if s == 0 {
				return
			}
			h := t.bucket(t.slots[s-1].vp)
			// The entry at j may move to b unless its home lies
			// cyclically in (b, j].
			if (j-h)&t.mask >= (j-b)&t.mask {
				t.index[b] = s
				b = j
				break
			}
		}
	}
}

// unlink removes slot i from the recency list.
func (t *TLB) unlink(i int32) {
	e := &t.slots[i]
	if e.prev >= 0 {
		t.slots[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next >= 0 {
		t.slots[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
}

// pushFront makes slot i the most recently used entry.
func (t *TLB) pushFront(i int32) {
	e := &t.slots[i]
	e.prev, e.next = -1, t.head
	if t.head >= 0 {
		t.slots[t.head].prev = i
	} else {
		t.tail = i
	}
	t.head = i
}

// touch moves slot i to the front of the recency list.
func (t *TLB) touch(i int32) {
	if t.head != i {
		t.unlink(i)
		t.pushFront(i)
	}
}

// Lookup returns the cached mapping for vp.
func (t *TLB) Lookup(vp memory.VPage) (memory.GPage, bool) {
	if s := t.index[t.find(vp)]; s != 0 {
		t.touch(s - 1)
		t.Hits++
		return t.slots[s-1].gpage(), true
	}
	t.Misses++
	return memory.NilGPage, false
}

// Insert caches a mapping, updating an existing entry for the page in
// place (a remap must take effect immediately) or evicting the least
// recently used entry.
func (t *TLB) Insert(vp memory.VPage, g memory.GPage) {
	b := t.find(vp)
	if s := t.index[b]; s != 0 {
		t.slots[s-1].set(g)
		t.touch(s - 1)
		return
	}
	var i int32
	switch {
	case t.free >= 0:
		i = t.free
		t.free = t.slots[i].next
		t.n++
	case t.used < int32(len(t.slots)):
		i = t.used
		t.used++
		t.n++
	default:
		i = t.tail
		t.unlink(i)
		t.unindex(t.find(t.slots[i].vp))
		b = t.find(vp) // the shift may have moved vp's empty bucket
	}
	t.slots[i].vp = vp
	t.slots[i].set(g)
	t.index[b] = i + 1
	t.pushFront(i)
}

// Invalidate drops the entry for vp, if cached.
func (t *TLB) Invalidate(vp memory.VPage) {
	b := t.find(vp)
	s := t.index[b]
	if s == 0 {
		return
	}
	i := s - 1
	t.unindex(b)
	t.unlink(i)
	t.slots[i].next = t.free
	t.free = i
	t.n--
	t.Shootdowns++
}

// Flush drops every entry (the whole-TLB shootdown of §2.4).
func (t *TLB) Flush() {
	clear(t.index)
	t.head, t.tail, t.free = -1, -1, -1
	t.n, t.used = 0, 0
	t.Shootdowns++
}

// Len returns the number of valid entries.
func (t *TLB) Len() int { return int(t.n) }
