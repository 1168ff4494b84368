package dram

import (
	"testing"
	"testing/quick"
)

func TestDefaultLayoutValid(t *testing.T) {
	l := DefaultLayout()
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.RegionCount != 64 {
		t.Fatalf("default region count = %d, want 64 (Sanctum)", l.RegionCount)
	}
	if l.MemorySize() != uint64(l.RegionCount)*l.RegionSize() {
		t.Fatal("memory size inconsistent")
	}
}

func TestValidateRejectsBadLayouts(t *testing.T) {
	bad := []Layout{
		{RegionShift: 18, RegionCount: 0},
		{RegionShift: 18, RegionCount: 65},
		{RegionShift: 10, RegionCount: 8}, // smaller than a page
		{RegionShift: 50, RegionCount: 8}, // implausible
		{RegionShift: 18, RegionCount: -1},
	}
	for _, l := range bad {
		if err := l.Validate(); err == nil {
			t.Errorf("layout %+v accepted", l)
		}
	}
}

func TestRegionOf(t *testing.T) {
	l := Layout{RegionShift: 16, RegionCount: 4} // 64 KiB regions
	cases := []struct {
		pa   uint64
		want int
	}{
		{0, 0}, {0xFFFF, 0}, {0x10000, 1}, {0x2FFFF, 2}, {0x30000, 3},
		{0x3FFFF, 3}, {0x40000, -1}, {^uint64(0), -1},
	}
	for _, c := range cases {
		if got := l.RegionOf(c.pa); got != c.want {
			t.Errorf("RegionOf(%#x) = %d, want %d", c.pa, got, c.want)
		}
	}
}

func TestBaseInvertsRegionOf(t *testing.T) {
	l := DefaultLayout()
	for r := 0; r < l.RegionCount; r++ {
		if got := l.RegionOf(l.Base(r)); got != r {
			t.Fatalf("RegionOf(Base(%d)) = %d", r, got)
		}
	}
}

func TestBitmapOps(t *testing.T) {
	var b Bitmap
	b = b.Set(0).Set(5).Set(63)
	if !b.Has(0) || !b.Has(5) || !b.Has(63) || b.Has(1) {
		t.Fatal("set/has mismatch")
	}
	if b.Count() != 3 {
		t.Fatalf("count = %d", b.Count())
	}
	b = b.Clear(5)
	if b.Has(5) || b.Count() != 2 {
		t.Fatal("clear failed")
	}
	if b.Has(-1) || b.Has(64) {
		t.Fatal("out-of-range Has must be false")
	}
	got := b.Regions()
	if len(got) != 2 || got[0] != 0 || got[1] != 63 {
		t.Fatalf("regions = %v", got)
	}
}

func TestBitmapIntersects(t *testing.T) {
	a := Bitmap(0).Set(1).Set(2)
	b := Bitmap(0).Set(2).Set(3)
	c := Bitmap(0).Set(4)
	if !a.Intersects(b) {
		t.Error("overlapping bitmaps reported disjoint")
	}
	if a.Intersects(c) {
		t.Error("disjoint bitmaps reported overlapping")
	}
}

func TestFull(t *testing.T) {
	l := Layout{RegionShift: 16, RegionCount: 8}
	if l.Full() != Bitmap(0xFF) {
		t.Fatalf("full = %#x", l.Full())
	}
	l64 := DefaultLayout()
	if l64.Full().Count() != 64 {
		t.Fatal("64-region full bitmap wrong")
	}
}

func TestContainsRange(t *testing.T) {
	l := Layout{RegionShift: 16, RegionCount: 4}
	b := Bitmap(0).Set(1).Set(2)
	if !b.ContainsRange(l, 0x10000, 0x20000) {
		t.Error("range exactly covering regions 1-2 rejected")
	}
	if b.ContainsRange(l, 0x0FFFF, 2) {
		t.Error("range touching region 0 accepted")
	}
	if b.ContainsRange(l, 0x2FFFF, 2) {
		t.Error("range leaking into region 3 accepted")
	}
	if !b.ContainsRange(l, 0x10000, 0) {
		t.Error("empty range should always be contained")
	}
	if b.ContainsRange(l, 0x40000, 1) {
		t.Error("range outside layout accepted")
	}
}

// TestContainsRangeRefusesWrappingEnd: a range whose end wraps past
// 2^64 into region 0 must be refused, even with its first and wrapped
// last byte in member regions — region 3 lies between them.
func TestContainsRangeRefusesWrappingEnd(t *testing.T) {
	l := Layout{RegionShift: 16, RegionCount: 4}
	b := Bitmap(0).Set(0).Set(1).Set(2)
	pa := l.Base(2)
	if b.ContainsRange(l, pa, ^uint64(0)-pa+17) {
		t.Error("range wrapping into region 0 accepted")
	}
}

// Property: a bitmap containing region r accepts any in-region range, and
// the exclusive-ownership check (Intersects) is symmetric.
func TestBitmapProperties(t *testing.T) {
	l := DefaultLayout()
	inRegion := func(r uint8, off uint16) bool {
		reg := int(r) % l.RegionCount
		b := Bitmap(0).Set(reg)
		pa := l.Base(reg) + uint64(off)%l.RegionSize()
		n := l.RegionSize() - uint64(off)%l.RegionSize()
		return b.ContainsRange(l, pa, n)
	}
	if err := quick.Check(inRegion, nil); err != nil {
		t.Error(err)
	}
	symmetric := func(x, y uint64) bool {
		return Bitmap(x).Intersects(Bitmap(y)) == Bitmap(y).Intersects(Bitmap(x))
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Error(err)
	}
}
