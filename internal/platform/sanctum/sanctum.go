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

// RefreshRegions installs a core's current region bitmaps without
// disturbing the rest of its state.
func (Platform) RefreshRegions(c *machine.Core, own, os dram.Bitmap) error {
	c.EncRegions, c.OSRegions = own, os
	return nil
}

// Expresses implements sm.Platform: a region bitmap expresses any set.
func (Platform) Expresses(dram.Bitmap) bool { return true }
