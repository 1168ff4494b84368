// Package clean is the region-cleaning step the Sanctum and Keystone
// backends share (Fig 2: clean(resource)): a DRAM region changing
// protection domain is scrubbed and its lines leave every cache, so
// the next owner observes neither data nor cache-tag state from the
// previous one. It also holds the region TLB shootdown all three
// backends share.
package clean

import (
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/tlb"
)

// Region zeroes region r and flushes its lines from the shared L2 and
// every core's private L1. On Sanctum's page-colored L2 the flush
// visits only the region's own sets. The L1 flushes are delivered
// through each core's IPI mailbox: a running hart performs its own
// flush at an instruction boundary, an idle hart's flush executes
// synchronously on this goroutine. Region returns only after every
// hart acknowledged.
func Region(m *machine.Machine, r int) error {
	base, size := m.DRAM.Base(r), m.DRAM.RegionSize()
	if err := m.Mem.ZeroRange(base, size); err != nil {
		return err
	}
	m.L2.FlushRange(base, size)
	flushL1 := func(c *machine.Core) { c.L1.FlushRange(base, size) }
	for _, c := range m.Cores {
		m.RunOn(c.ID, machine.NoHart, flushL1)
	}
	return nil
}

// Shootdown removes every TLB translation targeting region r on every
// core (the page-walk invariant of §VII-A requires this whenever a
// region changes protection domain). Each core's flush travels as an
// inter-processor interrupt acknowledged at an instruction boundary;
// Shootdown returns once all cores have acknowledged, which is when
// the invariant holds machine-wide again.
func Shootdown(m *machine.Machine, r int) {
	layout := m.DRAM
	flush := func(c *machine.Core) {
		c.TLB.FlushIf(func(e tlb.Entry) bool {
			return layout.RegionOf(e.PPN<<mem.PageBits) == r
		})
	}
	for _, c := range m.Cores {
		m.RunOn(c.ID, machine.NoHart, flush)
	}
}
