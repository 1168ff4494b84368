package mem

import (
	"errors"
	"testing"
)

// TestCheckRangeHugeN pins the checkRange fix: lengths that overflow a
// 32-bit int (and would misbehave where int is 32 bits) are rejected
// as out-of-range, never wrapped.
func TestCheckRangeHugeN(t *testing.T) {
	m := New(1 << 16)
	for _, n := range []uint64{1 << 31, 1 << 40, 1<<64 - 1} {
		if err := m.ZeroRange(0, n); !errors.Is(err, ErrOutOfRange) {
			t.Errorf("ZeroRange(0, %#x) = %v, want out-of-range", n, err)
		}
	}
	// A large but valid range on a large memory works.
	big := New(1 << 33)
	if err := big.ZeroRange(0, 1<<33); err != nil {
		t.Fatalf("full-memory ZeroRange: %v", err)
	}
}

// TestZeroRangeDematerializes checks that scrubbing whole pages
// returns them to the sparse baseline while partial pages are zeroed
// in place.
func TestZeroRangeDematerializes(t *testing.T) {
	m := New(1 << 16)
	for a := uint64(0); a < 4*PageSize; a += PageSize {
		m.Store(a, 8, ^uint64(0))
	}
	if got := m.TouchedPages(); got != 4 {
		t.Fatalf("touched = %d", got)
	}
	// Pages 1 and 2 are covered whole; pages 0 and 3 partially.
	if err := m.ZeroRange(PageSize-8, 2*PageSize+16); err != nil {
		t.Fatal(err)
	}
	if got := m.TouchedPages(); got != 2 {
		t.Fatalf("touched after scrub = %d, want 2 (whole pages dropped)", got)
	}
	for _, a := range []uint64{PageSize - 8, PageSize, 2 * PageSize, 3 * PageSize} {
		if v, _ := m.Load(a, 8); v != 0 {
			t.Errorf("addr %#x = %#x, want 0", a, v)
		}
	}
	if v, _ := m.Load(0, 8); v != ^uint64(0) {
		t.Errorf("byte before range was scrubbed")
	}
}

// TestWindowMatchesPhys drives a Window and a bare Phys through the
// same traffic, including a ZeroRange that de-materializes the cached
// page, and requires identical values.
func TestWindowMatchesPhys(t *testing.T) {
	m := New(1 << 16)
	var w Window
	w.Reset(m)
	if cow, _ := w.StoreFast(0x1000, 8, 0xDEAD); cow {
		t.Fatal("window store refused on an unfrozen page")
	}
	if v := w.LoadFast(0x1000, 8); v != 0xDEAD {
		t.Fatalf("window load = %#x", v)
	}
	// Same-page access uses the cached pointer; cross-check via Phys.
	if v, _ := m.Load(0x1000, 8); v != 0xDEAD {
		t.Fatal("window store invisible through Phys")
	}
	// De-materialize the cached page; the window must not serve the
	// orphaned pointer.
	if err := m.ZeroRange(0x1000&^uint64(PageMask), PageSize); err != nil {
		t.Fatal(err)
	}
	if v := w.LoadFast(0x1000, 8); v != 0 {
		t.Fatalf("window read stale page after ZeroRange: %#x", v)
	}
	if cow, _ := w.StoreFast(0x1000, 8, 7); cow {
		t.Fatal("window store refused after ZeroRange")
	}
	if v, _ := m.Load(0x1000, 8); v != 7 {
		t.Fatal("window store after ZeroRange lost")
	}
}

// TestCodeWriteHook checks the inline code-write tracking every store
// path goes through.
func TestCodeWriteHook(t *testing.T) {
	m := New(1 << 16)
	fired := 0
	m.SetCodeWriteHook(func() { fired++ })
	m.MarkCodePage(0x3000)
	m.Store(0x1000, 8, 1) // unmarked page: no fire
	if fired != 0 {
		t.Fatal("store to unmarked page fired the hook")
	}
	m.Store(0x3008, 8, 1)
	if fired != 1 {
		t.Fatalf("store to marked page: fired = %d", fired)
	}
	// The mark set is cleared before the hook runs.
	m.Store(0x3010, 8, 1)
	if fired != 1 {
		t.Fatalf("mark survived the flush: fired = %d", fired)
	}
	m.MarkCodePage(0x4000)
	if err := m.ZeroRange(0x4000, PageSize); err != nil {
		t.Fatal(err)
	}
	if fired != 2 {
		t.Fatalf("ZeroRange over marked page: fired = %d", fired)
	}
	m.MarkCodePage(0x5000)
	if err := m.WriteBytes(0x4ff8, make([]byte, 16)); err != nil {
		t.Fatal(err)
	}
	if fired != 3 {
		t.Fatalf("WriteBytes crossing into marked page: fired = %d", fired)
	}
}
