package mem

import (
	"sync"
	"testing"
)

// fill materializes the page at addr and writes a non-zero pattern
// over every word of it.
func fill(t testing.TB, m *Phys, addr, pattern uint64) {
	t.Helper()
	for off := uint64(0); off < PageSize; off += 8 {
		if err := m.Store(addr+off, 8, pattern^off); err != nil {
			t.Fatal(err)
		}
	}
}

// pageIsZero reports whether every byte of the page at addr reads 0.
func pageIsZero(m *Phys, addr uint64) bool {
	var buf [PageSize]byte
	m.ReadBytes(addr, buf[:])
	return buf == [PageSize]byte{}
}

// TestRecycledPageReadsZero scrubs a page full of data in one region
// and materializes a page in another: the second page is the first
// one's recycled backing array, and it must read all-zero.
func TestRecycledPageReadsZero(t *testing.T) {
	m := New(1 << 20)
	const src, dst = 0x10000, 0x80000
	fill(t, m, src, 0xA5A5A5A5A5A5A5A5)
	old := m.pages[src>>PageBits].Load()
	if err := m.ZeroRange(src, PageSize); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Load(dst, 8); v != 0 {
		t.Fatalf("recycled page word 0 = %#x", v)
	}
	if m.pages[dst>>PageBits].Load() != old {
		t.Fatal("the next materialization did not reuse the dropped page")
	}
	if !pageIsZero(m, dst) {
		t.Fatal("recycled page carries the previous owner's data")
	}
	if !pageIsZero(m, src) {
		t.Fatal("scrubbed page reads non-zero")
	}
}

// TestTouchedPagesCountsLivePagesOnly checks that pages waiting on the
// free list are not counted as materialized.
func TestTouchedPagesCountsLivePagesOnly(t *testing.T) {
	m := New(1 << 20)
	for p := uint64(0); p < 3; p++ {
		m.Store(p*PageSize, 8, 1)
	}
	m.ZeroRange(0, 2*PageSize)
	if got := m.TouchedPages(); got != 1 {
		t.Fatalf("touched after dropping 2 of 3 = %d, want 1", got)
	}
	if m.nfree != 2 {
		t.Fatalf("free list holds %d pages, want 2", m.nfree)
	}
	m.Store(5*PageSize, 8, 1)
	if got := m.TouchedPages(); got != 2 {
		t.Fatalf("touched after reusing a page = %d, want 2", got)
	}
	if m.nfree != 1 {
		t.Fatalf("free list holds %d pages after one reuse, want 1", m.nfree)
	}
}

// TestFreeListCapped drops more pages than the free list holds, in one
// scrub and across several: the list stops at its cap.
func TestFreeListCapped(t *testing.T) {
	m := New(1 << 20)
	const n = 3 * freeCap
	for p := uint64(0); p < n; p++ {
		m.Store(p*PageSize, 8, 1)
	}
	m.ZeroRange(0, n*PageSize)
	if m.nfree != freeCap {
		t.Fatalf("free list after one %d-page scrub = %d, want %d", n, m.nfree, freeCap)
	}
	for p := uint64(0); p < n; p++ {
		m.Store(p*PageSize, 8, 1)
		m.ZeroPage(p * PageSize)
		if m.nfree > freeCap {
			t.Fatalf("free list grew to %d, cap %d", m.nfree, freeCap)
		}
	}
	if got := m.TouchedPages(); got != 0 {
		t.Fatalf("touched = %d after scrubbing everything", got)
	}
}

// TestWindowNeverAliasesNextOwner caches a page in a Window, scrubs
// it, and lets another address materialize the recycled page and fill
// it: the Window must read the scrubbed address as zero and its writes
// must not reach the page's next owner.
func TestWindowNeverAliasesNextOwner(t *testing.T) {
	m := New(1 << 20)
	const a, b = 0x3000, 0x9000
	var w Window
	w.Reset(m)
	w.StoreFast(a, 8, 1)
	if m.ZeroRange(a, PageSize) != nil {
		t.Fatal("scrub failed")
	}
	fill(t, m, b, 0x5555555555555555) // b reuses a's old page
	if v := w.LoadFast(a, 8); v != 0 {
		t.Fatalf("window read %#x at the scrubbed address (the next owner's data)", v)
	}
	w.StoreFast(a+8, 8, 0xBAD)
	if v, _ := m.Load(b+8, 8); v != 0x5555555555555555^8 {
		t.Fatalf("window write reached the next owner: %#x", v)
	}
}

// TestWindowRefillDuringScrub interleaves Window refills with a
// two-page scrub through the drop hook. Window early refills on the
// second page after the first page left the table, while the second
// page still holds data; window late refills on it after it too left
// the table, before the generation bump. Once both dropped pages back
// other addresses, neither window may see or write them.
func TestWindowRefillDuringScrub(t *testing.T) {
	m := New(1 << 20)
	const first, second, other = 0x20000, 0x21000, 0x60000
	fill(t, m, first, 0x1111111111111111)
	fill(t, m, second, 0x2222222222222222)
	var early, late Window
	early.Reset(m)
	late.Reset(m)
	m.dropHook = func(ppn uint64) {
		if ppn == first>>PageBits {
			early.LoadFast(second, 8)
		} else {
			late.LoadFast(second, 8)
		}
	}
	if err := m.ZeroRange(first, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	m.dropHook = nil
	// Both dropped pages go to new owners, which fill them.
	fill(t, m, other, 0x3333333333333333)
	fill(t, m, other+PageSize, 0x4444444444444444)
	for _, tc := range []struct {
		name string
		w    *Window
	}{{"early", &early}, {"late", &late}} {
		name, w := tc.name, tc.w
		for off := uint64(0); off < PageSize; off += 8 {
			if v := w.LoadFast(second+off, 8); v != 0 {
				t.Fatalf("window %s read %#x at scrubbed %#x: it aliases a recycled page", name, v, second+off)
			}
		}
		w.StoreFast(second, 8, 0xBAD)
		for _, a := range []uint64{other, other + PageSize} {
			if v, _ := m.Load(a, 8); v == 0xBAD {
				t.Fatalf("window %s write landed in the next owner's page %#x", name, a)
			}
		}
		if v, _ := m.Load(second, 8); v != 0xBAD {
			t.Fatalf("window %s write lost: %#x", name, v)
		}
		m.Store(second, 8, 0)
	}
}

// TestRecycleRace materializes, checks and drops disjoint pages from
// several goroutines at once, through both Phys and Windows, so pages
// pass between goroutines through the shared free list. Run it under
// -race; every read must see the owner's own pattern or zero.
func TestRecycleRace(t *testing.T) {
	m := New(1 << 22)
	const workers, pages, rounds = 4, 6, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			base := g * 0x100000
			var w Window
			w.Reset(m)
			for r := uint64(0); r < rounds; r++ {
				pattern := g<<56 | r<<32 | 0xC0DE
				for p := uint64(0); p < pages; p++ {
					a := base + p*PageSize
					if v := w.LoadFast(a, 8); v != 0 {
						t.Errorf("worker %d round %d: fresh page %#x reads %#x", g, r, a, v)
						return
					}
					w.StoreFast(a, 8, pattern)
					m.Store(a+PageSize-8, 8, pattern)
				}
				for p := uint64(0); p < pages; p++ {
					a := base + p*PageSize
					if v, _ := m.Load(a, 8); v != pattern {
						t.Errorf("worker %d round %d: %#x = %#x, want %#x", g, r, a, v, pattern)
						return
					}
					if v := w.LoadFast(a+PageSize-8, 8); v != pattern {
						t.Errorf("worker %d round %d: %#x tail = %#x, want %#x", g, r, a, v, pattern)
						return
					}
				}
				if err := m.ZeroRange(base, pages*PageSize); err != nil {
					t.Error(err)
					return
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if got := m.TouchedPages(); got != 0 {
		t.Fatalf("touched = %d after every worker scrubbed its pages", got)
	}
}
