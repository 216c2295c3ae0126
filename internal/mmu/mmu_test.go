package mmu

import (
	"testing"

	"plus/internal/memory"
)

func TestLookupInstallInvalidate(t *testing.T) {
	tbl := New()
	if _, ok := tbl.Lookup(5); ok {
		t.Fatal("empty table had a mapping")
	}
	g := memory.GPage{Node: 2, Page: 7}
	tbl.Install(5, g)
	got, ok := tbl.Lookup(5)
	if !ok || got != g {
		t.Fatalf("lookup = %v %v", got, ok)
	}
	if tbl.Len() != 1 {
		t.Fatalf("len = %d", tbl.Len())
	}
	// Replace.
	g2 := memory.GPage{Node: 3, Page: 1}
	tbl.Install(5, g2)
	if got, _ := tbl.Lookup(5); got != g2 {
		t.Fatal("install did not replace")
	}
	tbl.Invalidate(5)
	if _, ok := tbl.Lookup(5); ok {
		t.Fatal("invalidate left the mapping")
	}
	tbl.Invalidate(5) // idempotent
}

func TestFlush(t *testing.T) {
	tbl := New()
	for i := memory.VPage(0); i < 10; i++ {
		tbl.Install(i, memory.GPage{Node: 0, Page: memory.PPage(i)})
	}
	tbl.Flush()
	if tbl.Len() != 0 {
		t.Fatalf("len after flush = %d", tbl.Len())
	}
	if tbl.Flushes != 1 {
		t.Fatalf("flushes = %d", tbl.Flushes)
	}
}

// TestReserve checks that Reserve keeps every mapping, that the table
// then takes the reserved installs without growing, and that a
// reservation it already has room for allocates nothing.
func TestReserve(t *testing.T) {
	tbl := New()
	for i := memory.VPage(0); i < 3; i++ {
		tbl.Install(i, memory.GPage{Node: 1, Page: memory.PPage(i)})
	}
	tbl.Reserve(1000)
	for i := memory.VPage(0); i < 3; i++ {
		if g, ok := tbl.Lookup(i); !ok || g.Page != memory.PPage(i) {
			t.Fatalf("page %d after Reserve: %v %v", i, g, ok)
		}
	}
	next := memory.VPage(3)
	if avg := testing.AllocsPerRun(4, func() {
		for i := 0; i < 100; i++ {
			tbl.Install(next, memory.GPage{Node: 2, Page: memory.PPage(next)})
			next++
		}
		tbl.Reserve(1)
	}); avg != 0 {
		t.Fatalf("installs within the reservation allocate %v objects per run, want 0", avg)
	}
	if tbl.Len() != 503 {
		t.Fatalf("len = %d, want 503", tbl.Len())
	}
}
