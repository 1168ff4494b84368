package mem

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
)

func TestSizeRounding(t *testing.T) {
	m := New(PageSize + 1)
	if m.Size() != 2*PageSize {
		t.Fatalf("size = %#x, want two pages", m.Size())
	}
	if m.Pages() != 2 {
		t.Fatalf("pages = %d, want 2", m.Pages())
	}
}

func TestLoadStoreWidths(t *testing.T) {
	m := New(1 << 20)
	for _, w := range []int{1, 2, 4, 8} {
		addr := uint64(0x1000 * w)
		val := uint64(0xdeadbeefcafef00d) & (1<<(8*uint(w)) - 1)
		if w == 8 {
			val = 0xdeadbeefcafef00d
		}
		if err := m.Store(addr, w, val); err != nil {
			t.Fatalf("store width %d: %v", w, err)
		}
		got, err := m.Load(addr, w)
		if err != nil {
			t.Fatalf("load width %d: %v", w, err)
		}
		if got != val {
			t.Errorf("width %d: got %#x want %#x", w, got, val)
		}
	}
}

func TestLittleEndianLayout(t *testing.T) {
	m := New(1 << 16)
	m.Store(0, 8, 0x0807060504030201)
	b := make([]byte, 8)
	m.ReadBytes(0, b)
	if !bytes.Equal(b, []byte{1, 2, 3, 4, 5, 6, 7, 8}) {
		t.Fatalf("layout = %v", b)
	}
}

func TestUnalignedRejected(t *testing.T) {
	m := New(1 << 16)
	for _, w := range []int{2, 4, 8} {
		if _, err := m.Load(1, w); !errors.Is(err, ErrUnaligned) {
			t.Errorf("load width %d at 1: err = %v", w, err)
		}
		if err := m.Store(uint64(w-1), w, 0); !errors.Is(err, ErrUnaligned) {
			t.Errorf("store width %d: err = %v", w, err)
		}
	}
}

func TestBadWidthRejected(t *testing.T) {
	m := New(1 << 16)
	if _, err := m.Load(0, 3); !errors.Is(err, ErrBadWidth) {
		t.Errorf("width 3 load: %v", err)
	}
	if err := m.Store(0, 0, 1); !errors.Is(err, ErrBadWidth) {
		t.Errorf("width 0 store: %v", err)
	}
}

func TestOutOfRange(t *testing.T) {
	m := New(1 << 16)
	if _, err := m.Load(1<<16, 8); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("load beyond end: %v", err)
	}
	if err := m.WriteBytes(1<<16-4, make([]byte, 8)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("straddling write: %v", err)
	}
	// Overflow attempt: huge n wrapping around.
	if err := m.ReadBytes(^uint64(0)-3, make([]byte, 8)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("wrapping read: %v", err)
	}
}

func TestCrossPageBytes(t *testing.T) {
	m := New(1 << 16)
	src := make([]byte, 3*PageSize)
	for i := range src {
		src[i] = byte(i * 7)
	}
	if err := m.WriteBytes(PageSize-100, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := m.ReadBytes(PageSize-100, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(src, dst) {
		t.Fatal("cross-page round trip corrupted data")
	}
}

func TestSparseness(t *testing.T) {
	m := New(1 << 30)
	m.Store(0x3fff0000, 8, 1)
	if got := m.TouchedPages(); got != 1 {
		t.Fatalf("touched pages = %d, want 1", got)
	}
	// Reading untouched memory returns zero without materializing... the
	// page map may materialize on read; the invariant is bounded growth.
	v, err := m.Load(0x100000, 8)
	if err != nil || v != 0 {
		t.Fatalf("fresh memory = %#x, err %v", v, err)
	}
	if got := m.TouchedPages(); got > 2 {
		t.Fatalf("touched pages = %d after one store and one load", got)
	}
}

func TestZeroRange(t *testing.T) {
	m := New(1 << 16)
	for a := uint64(0); a < 3*PageSize; a += 8 {
		m.Store(a, 8, ^uint64(0))
	}
	if err := m.ZeroRange(100, 2*PageSize); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Load(96, 8)
	if v == 0 {
		t.Error("byte before zeroed range was cleared")
	}
	for a := uint64(104); a < 100+2*PageSize-8; a += 8 {
		if v, _ := m.Load(a&^7, 8); a >= 104 && a+8 <= 100+2*PageSize && v != 0 {
			t.Fatalf("addr %#x not zeroed: %#x", a, v)
		}
	}
}

func TestZeroPage(t *testing.T) {
	m := New(1 << 16)
	m.Store(PageSize+8, 8, 42)
	m.Store(2*PageSize, 8, 43)
	if err := m.ZeroPage(PageSize + 500); err != nil {
		t.Fatal(err)
	}
	if v, _ := m.Load(PageSize+8, 8); v != 0 {
		t.Error("target page not zeroed")
	}
	if v, _ := m.Load(2*PageSize, 8); v != 43 {
		t.Error("adjacent page was zeroed")
	}
}

func TestReadWriteBytesProperty(t *testing.T) {
	m := New(1 << 20)
	roundTrip := func(off uint16, data []byte) bool {
		if len(data) == 0 {
			return true
		}
		addr := uint64(off)
		if err := m.WriteBytes(addr, data); err != nil {
			return false
		}
		got := make([]byte, len(data))
		if err := m.ReadBytes(addr, got); err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Error(err)
	}
}

func TestCOWMarkBlocksWrites(t *testing.T) {
	m := New(1 << 20)
	pa := uint64(0x3000)
	m.Store(pa, 8, 0x1234)
	m.MarkCOW(pa)
	if !m.IsCOW(pa) || m.IsCOW(pa+PageSize) {
		t.Fatal("COW mark set wrong")
	}
	if err := m.Store(pa+16, 8, 1); !errors.Is(err, ErrCOWProtected) {
		t.Fatalf("store into frozen page: %v", err)
	}
	if err := m.WriteBytes(pa+PageSize-4, make([]byte, 8)); !errors.Is(err, ErrCOWProtected) {
		t.Fatalf("straddling write into frozen page: %v", err)
	}
	var w Window
	w.Reset(m)
	if cow, _ := w.StoreFast(pa, 4, 1); !cow {
		t.Fatal("window store into frozen page not refused")
	}
	if cow, _ := w.Store64(pa, 1); !cow {
		t.Fatal("8-byte window store into frozen page not refused")
	}
	// Reads still work, and the frozen contents are intact.
	if v, err := m.Load(pa, 8); err != nil || v != 0x1234 {
		t.Fatalf("load from frozen page: %v %#x", err, v)
	}
	m.ClearCOW(pa)
	if err := m.Store(pa+16, 8, 1); err != nil {
		t.Fatalf("store after thaw: %v", err)
	}
}

func TestPageRefAccounting(t *testing.T) {
	m := New(1 << 20)
	a, b := uint64(0x1000), uint64(0x5000)
	if m.TotalRefs() != 0 || m.RangeHasRefs(0, 1<<20) {
		t.Fatal("fresh memory holds references")
	}
	m.Retain(a)
	m.Retain(a)
	m.Retain(b)
	if m.PageRefs(a) != 2 || m.PageRefs(b) != 1 || m.TotalRefs() != 3 {
		t.Fatalf("refs %d/%d total %d", m.PageRefs(a), m.PageRefs(b), m.TotalRefs())
	}
	if !m.RangeHasRefs(a, PageSize) || m.RangeHasRefs(0x2000, PageSize) {
		t.Fatal("RangeHasRefs wrong")
	}
	if n := m.ReleaseRef(a); n != 1 {
		t.Fatalf("release returned %d", n)
	}
	m.ReleaseRef(a)
	m.ReleaseRef(b)
	if m.TotalRefs() != 0 {
		t.Fatalf("refs leaked: %d", m.TotalRefs())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("releasing below zero did not panic")
		}
	}()
	m.ReleaseRef(a)
}
