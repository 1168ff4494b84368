// Package dram models the MIT Sanctum processor's DRAM regions (§VII-A
// of the paper): physical memory is carved into a fixed number of
// equally-sized, isolation-aligned regions, each exclusively assignable
// to one protection domain. Region isolation extends through the shared
// last-level cache because region index bits overlap the cache set index
// bits (page coloring), which the cache model in internal/hw/cache
// mirrors.
//
// The real Sanctum uses 64 regions of 32 MB; the simulation keeps the
// count and all mask arithmetic but lets the region size be configured,
// defaulting to 256 KiB so tests stay small.
package dram

import (
	"fmt"
	"math/bits"

	"sanctorum/internal/hw/mem"
)

// Layout describes the region geometry of a machine.
type Layout struct {
	RegionShift uint // log2 of the region size in bytes
	RegionCount int  // number of regions; physical memory = count << shift
}

// DefaultLayout mirrors Sanctum's 64 regions at simulation scale.
func DefaultLayout() Layout { return Layout{RegionShift: 18, RegionCount: 64} }

// Validate reports whether the layout is usable.
func (l Layout) Validate() error {
	if l.RegionCount <= 0 || l.RegionCount > 64 {
		return fmt.Errorf("dram: region count %d outside (0,64]", l.RegionCount)
	}
	if l.RegionShift < mem.PageBits {
		return fmt.Errorf("dram: region size smaller than a page (shift %d)", l.RegionShift)
	}
	if l.RegionShift > 40 {
		return fmt.Errorf("dram: implausible region shift %d", l.RegionShift)
	}
	return nil
}

// RegionSize returns the size of one region in bytes.
func (l Layout) RegionSize() uint64 { return 1 << l.RegionShift }

// MemorySize returns the total physical memory covered by the layout.
func (l Layout) MemorySize() uint64 { return uint64(l.RegionCount) << l.RegionShift }

// RegionOf returns the region index containing the physical address, or
// -1 if the address is outside the layout.
func (l Layout) RegionOf(pa uint64) int {
	r := pa >> l.RegionShift
	if r >= uint64(l.RegionCount) {
		return -1
	}
	return int(r)
}

// Base returns the first physical address of region r.
func (l Layout) Base(r int) uint64 { return uint64(r) << l.RegionShift }

// PagesPerRegion returns the number of 4 KiB pages in one region.
func (l Layout) PagesPerRegion() uint64 { return l.RegionSize() >> mem.PageBits }

// Bitmap is a set of DRAM regions, one bit per region, mirroring
// Sanctum's per-domain DRBMAP registers.
type Bitmap uint64

// Set returns the bitmap with region r added.
func (b Bitmap) Set(r int) Bitmap { return b | 1<<uint(r) }

// Clear returns the bitmap with region r removed.
func (b Bitmap) Clear(r int) Bitmap { return b &^ (1 << uint(r)) }

// Has reports whether region r is in the set.
func (b Bitmap) Has(r int) bool {
	return r >= 0 && r < 64 && b&(1<<uint(r)) != 0
}

// Count returns the number of regions in the set.
func (b Bitmap) Count() int { return bits.OnesCount64(uint64(b)) }

// Intersects reports whether the two sets share any region.
func (b Bitmap) Intersects(o Bitmap) bool { return b&o != 0 }

// Regions returns the region indices in ascending order.
func (b Bitmap) Regions() []int {
	out := make([]int, 0, b.Count())
	for r := 0; r < 64; r++ {
		if b.Has(r) {
			out = append(out, r)
		}
	}
	return out
}

// Full returns the bitmap containing every region of the layout.
func (l Layout) Full() Bitmap {
	if l.RegionCount == 64 {
		return Bitmap(^uint64(0))
	}
	return Bitmap(1<<uint(l.RegionCount) - 1)
}

// ContainsRange reports whether the whole physical range [pa, pa+n) lies
// within regions of the set. A range whose end wraps past 2^64 is
// refused: its last byte would otherwise land in a low region and the
// region walk below would run zero times.
func (b Bitmap) ContainsRange(l Layout, pa, n uint64) bool {
	if n == 0 {
		return true
	}
	end := pa + n - 1
	first, last := l.RegionOf(pa), l.RegionOf(end)
	if end < pa || first < 0 || last < 0 {
		return false
	}
	for r := first; r <= last; r++ {
		if !b.Has(r) {
			return false
		}
	}
	return true
}
