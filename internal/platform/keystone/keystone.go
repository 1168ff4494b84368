// Package keystone implements the Keystone backend of the security
// monitor (paper §VII-B): isolation comes from RISC-V Physical Memory
// Protection instead of Sanctum's hardware changes. The monitor's state
// and every enclave's memory are expressed as PMP entries; the LLC is
// NOT partitioned — exactly the threat-model difference the paper
// notes, and the one the side-channel experiments (E9) demonstrate.
//
// Entry layout per core: entry 0 denies the SM's own regions; the next
// entries deny (while the OS runs) or skip (while the owning enclave
// runs) each enclave-owned region; the final entry is an allow-all
// catch-all. Deny-before-allow priority does the rest. A machine whose
// enclaves collectively own more regions than PMP entries cannot be
// expressed — grants then fail with ErrNoResources, a real Keystone
// limitation (PMP entry exhaustion).
package keystone

import (
	"fmt"
	"sync"

	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/pmp"
	"sanctorum/internal/platform/clean"
	"sanctorum/internal/sm"
)

// Platform is the Keystone isolation backend.
type Platform struct {
	smRegions dram.Bitmap
	layout    dram.Layout

	// mu guards enclaveOwned: view switches on different harts update
	// it concurrently. PMP programming itself is per-core state and is
	// covered by the caller's core ownership.
	mu sync.Mutex

	// enclaveOwned tracks regions owned by any enclave so OS views can
	// deny them. It is maintained from the views the monitor applies.
	enclaveOwned dram.Bitmap
}

var _ sm.Platform = (*Platform)(nil)

// New returns a Keystone platform adapter. smRegions are the monitor's
// own regions (protected from all S/U-mode software).
func New(layout dram.Layout, smRegions []int) *Platform {
	p := &Platform{layout: layout}
	for _, r := range smRegions {
		p.smRegions = p.smRegions.Set(r)
	}
	return p
}

// Kind implements sm.Platform.
func (p *Platform) Kind() machine.IsolationKind { return machine.IsolationKeystone }

// NoteEnclaveRegions informs the adapter of the current set of
// enclave-owned regions. The monitor's region bookkeeping drives this
// through the view-refresh calls; it is exported for tests.
func (p *Platform) NoteEnclaveRegions(b dram.Bitmap) {
	p.mu.Lock()
	p.enclaveOwned = b
	p.mu.Unlock()
}

// program writes the PMP entry set: deny entries for every region in
// deny, then a catch-all allow.
func (p *Platform) program(c *machine.Core, deny dram.Bitmap) error {
	denies := deny.Regions()
	if len(denies)+1 > pmp.NumEntries {
		return fmt.Errorf("keystone: %d deny entries exceed the %d-entry PMP", len(denies), pmp.NumEntries)
	}
	i := 0
	for _, r := range denies {
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

// ApplyOSView hides the SM and every enclave-owned region from the OS.
// The enclave's address space root is dropped; the OS re-installs its
// own Satp when it schedules something.
func (p *Platform) ApplyOSView(c *machine.Core, osRegions dram.Bitmap) error {
	c.EnclaveMode = false
	c.Satp = 0
	c.ESatp = 0
	c.EvBase, c.EvMask = 0, 0
	c.EncRegions = 0
	c.OSRegions = osRegions
	p.mu.Lock()
	deny := p.smRegions | p.enclaveOwned
	p.mu.Unlock()
	// Everything not owned by the OS (and not plain available) is
	// denied: SM regions plus enclave-owned regions.
	return p.program(c, deny)
}

// ApplyEnclaveView opens the running enclave's own regions while still
// denying the SM and all other enclaves. Keystone enclaves translate
// every access through their own page table (loaded into Satp).
func (p *Platform) ApplyEnclaveView(c *machine.Core, v sm.EnclaveView) error {
	c.EnclaveMode = true
	c.Satp = v.RootPPN // the enclave brings its own address space
	c.EvBase, c.EvMask = v.EvBase, v.EvMask
	c.OSRegions = v.OSRegions
	p.mu.Lock()
	p.enclaveOwned |= v.Regions
	deny := (p.smRegions | p.enclaveOwned) &^ v.Regions
	p.mu.Unlock()
	return p.program(c, deny)
}

// RefreshOSRegions reprograms the deny set after region transitions.
func (p *Platform) RefreshOSRegions(c *machine.Core, osRegions dram.Bitmap) error {
	c.OSRegions = osRegions
	// Regions owned by neither the OS nor the SM are enclave-owned or
	// in transition; deny them all to S/U software on this core.
	full := p.layout.Full()
	p.mu.Lock()
	p.enclaveOwned = full &^ osRegions &^ p.smRegions
	deny := p.smRegions | p.enclaveOwned
	p.mu.Unlock()
	return p.program(c, deny)
}

// CleanRegion zeroes the region and flushes its cache footprint. The
// shared LLC is not partitioned under Keystone, so its flush sweeps the
// whole cache, but cleaning on re-allocation is still required for
// confidentiality of the contents.
func (p *Platform) CleanRegion(m *machine.Machine, r int) error { return clean.Region(m, r) }

// ShootdownRegion invalidates TLB entries into the region on all cores,
// returning once every core has acknowledged.
func (p *Platform) ShootdownRegion(m *machine.Machine, r int) { clean.Shootdown(m, r) }
