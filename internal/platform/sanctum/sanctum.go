// Package sanctum implements the MIT Sanctum processor backend of the
// security monitor (paper §VII-A): memory is isolated as fixed-size
// DRAM regions whose cache footprints are disjoint in the page-colored
// LLC, enclave virtual ranges are translated by a private page walk,
// and region re-allocation triggers TLB shootdowns under the page-walk
// invariant.
package sanctum

import (
	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/platform/clean"
	"sanctorum/internal/sm"
)

// Platform is the Sanctum isolation backend.
type Platform struct{}

var _ sm.Platform = Platform{}

// New returns the Sanctum platform adapter.
func New() Platform { return Platform{} }

// Kind implements sm.Platform.
func (Platform) Kind() machine.IsolationKind { return machine.IsolationSanctum }

// ApplyOSView programs a core for untrusted execution: enclave
// translation state cleared, OS region bitmap installed. The OS manages
// its own page-table root (Satp) — Sanctum only constrains which
// physical regions any translation may reach.
func (Platform) ApplyOSView(c *machine.Core, osRegions dram.Bitmap) error {
	c.EnclaveMode = false
	c.ESatp = 0
	c.EvBase, c.EvMask = 0, 0
	c.EncRegions = 0
	c.OSRegions = osRegions
	return nil
}

// ApplyEnclaveView programs a core to run an enclave: the private page
// walk root (ESatp) serves evrange, the enclave's region bitmap bounds
// it, and accesses outside evrange continue through the OS root against
// the OS bitmap (shared memory, §V-C).
func (Platform) ApplyEnclaveView(c *machine.Core, v sm.EnclaveView) error {
	c.EnclaveMode = true
	c.ESatp = v.RootPPN
	c.EvBase, c.EvMask = v.EvBase, v.EvMask
	c.EncRegions = v.Regions
	c.OSRegions = v.OSRegions
	return nil
}

// RefreshOSRegions updates the OS bitmap without disturbing the rest of
// the core state.
func (Platform) RefreshOSRegions(c *machine.Core, osRegions dram.Bitmap) error {
	c.OSRegions = osRegions
	return nil
}

// CleanRegion zeroes a region's memory and flushes its footprint from
// the page-colored LLC and every private L1 (Fig 2: clean(resource)).
func (Platform) CleanRegion(m *machine.Machine, r int) error { return clean.Region(m, r) }

// ShootdownRegion removes all TLB translations targeting region r on
// every core, returning once every core has acknowledged.
func (Platform) ShootdownRegion(m *machine.Machine, r int) { clean.Shootdown(m, r) }
