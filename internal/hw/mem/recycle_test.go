package mem

import (
	"errors"
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

// TestClearPageInPlace: ClearPage zeroes a materialized page where it
// sits — it stays materialized under the same backing array, a live
// Window reads the zeros without a refill, no generation moves and the
// free list is untouched — fires the code-write hook for a marked page,
// and leaves a never-materialized page unmaterialized.
func TestClearPageInPlace(t *testing.T) {
	m := New(1 << 20)
	hooks := 0
	m.SetCodeWriteHook(func() { hooks++ })
	const pa, untouched = 0x10000, 0x20000
	fill(t, m, pa, 0x5A5A5A5A5A5A5A5A)
	old := m.pages[pa>>PageBits].Load()
	var w Window
	w.Reset(m)
	if w.Load64(pa+0x80) == 0 {
		t.Fatal("setup: the window reads zero before the clear")
	}
	gen, touched, free := m.zeroGen.Load(), m.TouchedPages(), m.nfree
	m.MarkCodePage(pa)
	if err := m.ClearPage(pa + 0x123); err != nil {
		t.Fatal(err)
	}
	if !pageIsZero(m, pa) {
		t.Fatal("the cleared page reads non-zero")
	}
	if m.pages[pa>>PageBits].Load() != old {
		t.Fatal("the cleared page left the table")
	}
	if v := w.Load64(pa + 0x80); v != 0 || w.gen != gen {
		t.Fatalf("the live window reads %#x at generation %d, want 0 at %d", v, w.gen, gen)
	}
	if m.zeroGen.Load() != gen || m.TouchedPages() != touched || m.nfree != free {
		t.Fatal("ClearPage moved the generation, the page count or the free list")
	}
	if hooks != 1 {
		t.Fatalf("the code-write hook fired %d times, want 1", hooks)
	}
	if err := m.ClearPage(untouched); err != nil {
		t.Fatal(err)
	}
	if m.pages[untouched>>PageBits].Load() != nil || m.TouchedPages() != touched {
		t.Fatal("ClearPage materialized a page that was never touched")
	}
	if err := m.ClearPage(m.Size()); err == nil {
		t.Fatal("ClearPage past the end of memory succeeded")
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

// TestCopyPage covers the page copy the monitor's copy-on-write faults
// use: the refusals write nothing, a marked destination fires the
// code-write hook, a copy into a materialized page reaches a live
// Window on it, and a source that was never materialized leaves the
// destination unmaterialized and zero.
func TestCopyPage(t *testing.T) {
	const src, dst = 0x10000, 0x20000
	t.Run("refusals", func(t *testing.T) {
		m := New(1 << 20)
		fill(t, m, src, 0x0101010101010101)
		fill(t, m, dst, 0x0202020202020202)
		m.MarkCOW(dst)
		if err := m.CopyPage(dst, src); !errors.Is(err, ErrCOWProtected) {
			t.Fatalf("copy into a frozen page: %v, want ErrCOWProtected", err)
		}
		m.ClearCOW(dst)
		for _, tc := range []struct {
			dst, src uint64
			want     error
		}{
			{dst + 8, src, ErrUnaligned},
			{dst, src + 8, ErrUnaligned},
			{m.Size(), src, ErrOutOfRange},
			{dst, m.Size(), ErrOutOfRange},
		} {
			if err := m.CopyPage(tc.dst, tc.src); !errors.Is(err, tc.want) {
				t.Fatalf("CopyPage(%#x, %#x) = %v, want %v", tc.dst, tc.src, err, tc.want)
			}
		}
		if v, _ := m.Load(dst+8, 8); v != 0x0202020202020202^8 {
			t.Fatalf("a refused copy wrote the destination: %#x", v)
		}
	})
	t.Run("code-hook", func(t *testing.T) {
		m := New(1 << 20)
		fired := 0
		m.SetCodeWriteHook(func() { fired++ })
		fill(t, m, src, 0x0303030303030303)
		m.MarkCodePage(dst)
		if err := m.CopyPage(dst, src); err != nil {
			t.Fatal(err)
		}
		if fired != 1 {
			t.Fatalf("copy into a marked page fired the hook %d times, want 1", fired)
		}
	})
	t.Run("materialized", func(t *testing.T) {
		m := New(1 << 20)
		fill(t, m, src, 0x0404040404040404)
		fill(t, m, dst, 0x0505050505050505)
		var w Window
		w.Reset(m)
		w.LoadFast(dst, 8)
		touched := m.TouchedPages()
		if err := m.CopyPage(dst, src); err != nil {
			t.Fatal(err)
		}
		for off := uint64(0); off < PageSize; off += 8 {
			if v := w.LoadFast(dst+off, 8); v != 0x0404040404040404^off {
				t.Fatalf("window reads %#x at %#x after the copy, want the source's word", v, dst+off)
			}
		}
		if got := m.TouchedPages(); got != touched {
			t.Fatalf("touched %d after copying over a live page, want %d", got, touched)
		}
	})
	t.Run("fresh", func(t *testing.T) {
		m := New(1 << 20)
		fill(t, m, src, 0x0606060606060606)
		if err := m.CopyPage(dst, src); err != nil {
			t.Fatal(err)
		}
		for off := uint64(0); off < PageSize; off += 8 {
			if v, _ := m.Load(dst+off, 8); v != 0x0606060606060606^off {
				t.Fatalf("copy reads %#x at %#x, want the source's word", v, dst+off)
			}
		}
	})
	t.Run("unmaterialized-source", func(t *testing.T) {
		m := New(1 << 20)
		if err := m.CopyPage(dst, src); err != nil {
			t.Fatal(err)
		}
		if got := m.TouchedPages(); got != 0 {
			t.Fatalf("copying a never-materialized page materialized %d pages", got)
		}
		fill(t, m, dst, 0x0707070707070707)
		if err := m.CopyPage(dst, src); err != nil {
			t.Fatal(err)
		}
		if got := m.TouchedPages(); got != 0 {
			t.Fatalf("copying a never-materialized page over a live one left %d pages", got)
		}
		if !pageIsZero(m, dst) {
			t.Fatal("the destination of a zero page reads non-zero")
		}
	})
}

// TestZeroRangePartlyMaterialized scrubs a region where only some pages
// were ever touched: exactly those pages leave the table for the free
// list, and a partial page at the end is cleared in place.
func TestZeroRangePartlyMaterialized(t *testing.T) {
	m := New(1 << 20)
	const base = 0x40000
	touchedPages := []uint64{1, 4, 5, 14}
	for _, p := range touchedPages {
		fill(t, m, base+p*PageSize, 0x0808080808080808)
	}
	fill(t, m, base+16*PageSize, 0x0909090909090909)
	partial := m.pages[(base+16*PageSize)>>PageBits].Load()
	if err := m.ZeroRange(base, 16*PageSize+64); err != nil {
		t.Fatal(err)
	}
	if got := m.TouchedPages(); got != 1 {
		t.Fatalf("touched %d after the scrub, want 1 (the partial page)", got)
	}
	if m.nfree != len(touchedPages) {
		t.Fatalf("free list holds %d pages, want the %d materialized ones", m.nfree, len(touchedPages))
	}
	for p := uint64(0); p < 16; p++ {
		if m.pages[(base+p*PageSize)>>PageBits].Load() != nil {
			t.Fatalf("page %d is materialized after the scrub", p)
		}
	}
	if m.pages[(base+16*PageSize)>>PageBits].Load() != partial {
		t.Fatal("the partial page was replaced, not cleared in place")
	}
	for off := uint64(0); off < PageSize; off += 8 {
		want := uint64(0)
		if off >= 64 {
			want = 0x0909090909090909 ^ off
		}
		if v, _ := m.Load(base+16*PageSize+off, 8); v != want {
			t.Fatalf("partial page word %#x = %#x, want %#x", off, v, want)
		}
	}
}
