package tlb

import "testing"

func TestLookupMissThenHit(t *testing.T) {
	tl := New(4)
	if _, ok := tl.Lookup(5); ok {
		t.Fatal("hit in empty TLB")
	}
	tl.Insert(Entry{VPN: 5, PPN: 9, Perms: 0xF})
	e, ok := tl.Lookup(5)
	if !ok || e.PPN != 9 || e.Perms != 0xF {
		t.Fatalf("entry = %+v ok=%v", e, ok)
	}
	if tl.Hits != 1 || tl.Misses != 1 {
		t.Fatalf("stats hits=%d misses=%d", tl.Hits, tl.Misses)
	}
}

func TestInsertReplacesSameVPN(t *testing.T) {
	tl := New(4)
	tl.Insert(Entry{VPN: 1, PPN: 10})
	tl.Insert(Entry{VPN: 1, PPN: 20})
	if tl.Live() != 1 {
		t.Fatalf("live = %d, want 1", tl.Live())
	}
	e, _ := tl.Lookup(1)
	if e.PPN != 20 {
		t.Fatalf("ppn = %d, want updated 20", e.PPN)
	}
}

func TestFIFOEviction(t *testing.T) {
	tl := New(2)
	tl.Insert(Entry{VPN: 1, PPN: 1})
	tl.Insert(Entry{VPN: 2, PPN: 2})
	tl.Insert(Entry{VPN: 3, PPN: 3}) // evicts VPN 1
	if _, ok := tl.Lookup(1); ok {
		t.Fatal("oldest entry survived")
	}
	if _, ok := tl.Lookup(2); !ok {
		t.Fatal("newer entry evicted")
	}
	if _, ok := tl.Lookup(3); !ok {
		t.Fatal("newest entry missing")
	}
}

func TestFlush(t *testing.T) {
	tl := New(8)
	for i := uint64(0); i < 8; i++ {
		tl.Insert(Entry{VPN: i, PPN: i})
	}
	tl.Flush()
	if tl.Live() != 0 {
		t.Fatalf("live after flush = %d", tl.Live())
	}
	if tl.Flushes != 1 {
		t.Fatalf("flush count = %d", tl.Flushes)
	}
}

// TestFlushFramesSelective shoots down the translations into one
// frame range: entries inside it go, the ones below and above stay.
func TestFlushFramesSelective(t *testing.T) {
	tl := New(8)
	for i := uint64(0); i < 8; i++ {
		tl.Insert(Entry{VPN: i, PPN: i * 0x100})
	}
	// Shoot down translations into the "region" of frames
	// [0x300, 0x700): entries 3..6.
	if n := tl.FlushFrames(0x300, 0x400); n != 4 {
		t.Fatalf("shot down %d entries, want 4", n)
	}
	if tl.Live() != 4 {
		t.Fatalf("live = %d, want 4", tl.Live())
	}
	for _, i := range []uint64{0, 1, 2, 7} {
		if _, ok := tl.Lookup(i); !ok {
			t.Errorf("entry %d should have survived", i)
		}
	}
	if tl.Shootdown != 1 {
		t.Fatalf("shootdown count = %d", tl.Shootdown)
	}
}

func TestZeroCapacityClamped(t *testing.T) {
	tl := New(0)
	if tl.Capacity() != 1 {
		t.Fatalf("capacity = %d, want 1", tl.Capacity())
	}
	tl.Insert(Entry{VPN: 9, PPN: 1})
	if _, ok := tl.Lookup(9); !ok {
		t.Fatal("single-entry TLB does not hold an entry")
	}
}

func TestFlushPageTargetedShootdown(t *testing.T) {
	tl := New(4)
	tl.Insert(Entry{VPN: 1, PPN: 10, Perms: 0xF})
	tl.Insert(Entry{VPN: 2, PPN: 20, Perms: 0xF})
	gen := tl.Gen()
	if !tl.FlushPage(1) {
		t.Fatal("present VPN not invalidated")
	}
	if _, ok := tl.Lookup(1); ok {
		t.Fatal("flushed VPN still resolves")
	}
	if e, ok := tl.Lookup(2); !ok || e.PPN != 20 {
		t.Fatal("unrelated VPN lost")
	}
	if tl.Gen() == gen {
		t.Fatal("generation did not advance")
	}
	// Absent VPN: no entry dropped, but the generation still advances
	// (last-translation caches must die with the PTE change).
	gen = tl.Gen()
	if tl.FlushPage(7) {
		t.Fatal("absent VPN reported invalidated")
	}
	if tl.Gen() == gen {
		t.Fatal("generation did not advance for absent VPN")
	}
	if tl.Shootdown != 2 {
		t.Fatalf("shootdown stat %d, want 2", tl.Shootdown)
	}
}
