package tlb

import "testing"

// The indexed lookup must be invisible next to the scanning
// implementation: same FIFO order, same statistics, plus the generation
// contract the machine's fast path depends on.

// TestGenAdvancesOnMutation pins the generation contract: Gen moves
// exactly when a translation may have left the TLB. A fill into a free
// slot leaves every earlier hit a hit, so it must not move it;
// replacing a VPN's entry, evicting a valid victim, Flush, FlushFrames
// and FlushPage must.
func TestGenAdvancesOnMutation(t *testing.T) {
	tl := New(2)
	g := tl.Gen()
	step := func(what string, moves bool, f func()) {
		t.Helper()
		f()
		if moved := tl.Gen() != g; moved != moves {
			t.Fatalf("%s: generation moved = %v, want %v", what, moved, moves)
		}
		g = tl.Gen()
	}
	step("Lookup", false, func() { tl.Lookup(1) })
	step("Probe", false, func() { tl.Probe(1) })
	step("Insert into a free slot", false, func() { tl.Insert(Entry{VPN: 1, PPN: 10}) })
	step("Insert into the last free slot", false, func() { tl.Insert(Entry{VPN: 2, PPN: 20}) })
	step("Insert replacing its VPN", true, func() { tl.Insert(Entry{VPN: 2, PPN: 21}) })
	step("Insert evicting a valid entry", true, func() { tl.Insert(Entry{VPN: 3, PPN: 30}) })
	step("Flush", true, tl.Flush)
	step("Insert after a Flush", false, func() { tl.Insert(Entry{VPN: 4, PPN: 40}) })
	step("FlushFrames matching nothing", true, func() { tl.FlushFrames(0, 0) })
	step("FlushFrames dropping an entry", true, func() { tl.FlushFrames(40, 1) })
	step("Insert into the freed slot", false, func() { tl.Insert(Entry{VPN: 5, PPN: 50}) })
	step("FlushPage of an absent VPN", true, func() { tl.FlushPage(9) })
	step("FlushPage of a present VPN", true, func() { tl.FlushPage(5) })
	if tl.Hits != 0 || tl.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d: Probe must not count", tl.Hits, tl.Misses)
	}
}

// TestProbeMatchesLookup: Probe answers exactly what Lookup would,
// entry included, without touching the statistics.
func TestProbeMatchesLookup(t *testing.T) {
	tl := New(2)
	tl.Insert(Entry{VPN: 1, PPN: 10, Perms: 0xB})
	tl.Insert(Entry{VPN: 2, PPN: 20, Perms: 0x7})
	tl.Insert(Entry{VPN: 3, PPN: 30}) // evicts VPN 1
	for _, vpn := range []uint64{1, 2, 3, 4} {
		pe, pok := tl.Probe(vpn)
		hits, misses := tl.Hits, tl.Misses
		le, lok := tl.Lookup(vpn)
		if pe != le || pok != lok {
			t.Errorf("VPN %d: Probe %+v/%v, Lookup %+v/%v", vpn, pe, pok, le, lok)
		}
		tl.Hits, tl.Misses = hits, misses
	}
	if tl.Hits != 0 || tl.Misses != 0 {
		t.Fatalf("Probe counted %d hits, %d misses", tl.Hits, tl.Misses)
	}
}

func TestIndexTracksFIFOReplacement(t *testing.T) {
	tl := New(2)
	tl.Insert(Entry{VPN: 1, PPN: 10})
	tl.Insert(Entry{VPN: 2, PPN: 20})
	tl.Insert(Entry{VPN: 3, PPN: 30}) // evicts VPN 1 (FIFO)
	if _, ok := tl.Lookup(1); ok {
		t.Fatal("evicted VPN still indexed")
	}
	if e, ok := tl.Lookup(2); !ok || e.PPN != 20 {
		t.Fatalf("VPN 2 lookup = %+v, %v", e, ok)
	}
	if e, ok := tl.Lookup(3); !ok || e.PPN != 30 {
		t.Fatalf("VPN 3 lookup = %+v, %v", e, ok)
	}
	if tl.Live() != 2 {
		t.Fatalf("live = %d", tl.Live())
	}
}

// BenchmarkLookupHit measures the indexed probe on a full TLB — the
// per-instruction cost the linear scan used to pay in O(capacity).
func BenchmarkLookupHit(b *testing.B) {
	tl := New(32)
	for i := uint64(0); i < 32; i++ {
		tl.Insert(Entry{VPN: i, PPN: i * 16})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tl.Lookup(uint64(i) & 31); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkLookupMiss measures a probe that misses a full TLB; the
// scanning implementation walked every entry here.
func BenchmarkLookupMiss(b *testing.B) {
	tl := New(32)
	for i := uint64(0); i < 32; i++ {
		tl.Insert(Entry{VPN: i, PPN: i * 16})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.Lookup(1000)
	}
}
