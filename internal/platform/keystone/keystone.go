// Package keystone implements the Keystone backend of the security
// monitor (paper §VII-B): isolation comes from RISC-V Physical Memory
// Protection instead of Sanctum's hardware changes. The monitor's state
// and every enclave's memory are expressed as PMP entries; the LLC is
// NOT partitioned — exactly the threat-model difference the paper
// notes, and the one the side-channel experiments (E9) demonstrate.
//
// The adapter keeps no region state. A core's entries deny every
// region in neither of the region sets its view is programmed from —
// the running enclave's and the OS's — so the SM's regions, which are
// in neither, are always denied; a final allow-all catch-all and
// deny-before-allow priority do the rest. A view with more denied
// regions than PMP entries cannot be expressed, a real Keystone
// limitation (PMP entry exhaustion): Expresses reports it, and the
// monitor refuses any grant or block that would leave the OS such a
// view with ErrNoResources.
package keystone

import (
	"fmt"

	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/pmp"
	"sanctorum/internal/sm"
)

// Platform is the Keystone isolation backend.
type Platform struct {
	layout dram.Layout
}

var _ sm.Platform = Platform{}

// New returns a Keystone platform adapter for a machine's DRAM layout.
func New(layout dram.Layout) Platform { return Platform{layout: layout} }

// Kind implements sm.Platform.
func (Platform) Kind() machine.IsolationKind { return machine.IsolationKeystone }

// Expresses reports whether an OS view of osRegions fits the PMP: one
// deny entry per region outside it, plus the catch-all.
func (p Platform) Expresses(osRegions dram.Bitmap) bool {
	return (p.layout.Full()&^osRegions).Count()+1 <= pmp.NumEntries
}

// program writes the PMP entry set for a view that may reach the
// regions of allow: a deny entry for every other region, then a
// catch-all allow, with the entries between them cleared.
func (p Platform) program(c *machine.Core, allow dram.Bitmap) error {
	if !p.Expresses(allow) {
		return fmt.Errorf("keystone: %d deny entries exceed the %d-entry PMP",
			(p.layout.Full() &^ allow).Count(), pmp.NumEntries)
	}
	i := 0
	for r := 0; r < p.layout.RegionCount; r++ {
		if allow.Has(r) {
			continue
		}
		if err := c.PMP.Configure(i, pmp.Entry{
			Valid: true,
			Base:  p.layout.Base(r),
			Size:  p.layout.RegionSize(),
			Perm:  0, // no access for S/U
		}); err != nil {
			return err
		}
		i++
	}
	// Catch-all allow for the rest of memory.
	if err := c.PMP.Configure(pmp.NumEntries-1, pmp.Entry{
		Valid: true,
		Base:  0,
		Size:  p.layout.MemorySize(),
		Perm:  pmp.R | pmp.W | pmp.X,
	}); err != nil {
		return err
	}
	// Clear stale entries between the denies and the catch-all.
	for ; i < pmp.NumEntries-1; i++ {
		if err := c.PMP.Clear(i); err != nil {
			return err
		}
	}
	return nil
}

// ApplyOSView hides every region the OS does not own — the SM's and
// every enclave-owned or in-transition region — from the OS. The
// enclave's address space root is dropped; the OS re-installs its own
// Satp when it schedules something.
func (p Platform) ApplyOSView(c *machine.Core, osRegions dram.Bitmap) error {
	c.EnclaveMode = false
	c.Satp = 0
	c.ESatp = 0
	c.EvBase, c.EvMask = 0, 0
	c.EncRegions = 0
	c.OSRegions = osRegions
	return p.program(c, osRegions)
}

// ApplyEnclaveView opens the running enclave's own regions on top of
// the OS's, still denying the SM and all other enclaves. Keystone
// enclaves translate every access through their own page table (loaded
// into Satp).
func (p Platform) ApplyEnclaveView(c *machine.Core, v sm.EnclaveView) error {
	c.EnclaveMode = true
	c.Satp = v.RootPPN // the enclave brings its own address space
	c.EvBase, c.EvMask = v.EvBase, v.EvMask
	c.OSRegions = v.OSRegions
	return p.program(c, v.Regions|v.OSRegions)
}

// RefreshRegions reprograms a core's deny set after a region
// transition: own is the running enclave's access set (empty on an OS
// core).
func (p Platform) RefreshRegions(c *machine.Core, own, os dram.Bitmap) error {
	c.OSRegions = os
	return p.program(c, own|os)
}
