// Package baseline is the insecure control platform for the paper's
// comparison experiments: it implements the sm.Platform interface with
// no physical memory protection at all (the machine's IsolationNone
// mode lets every access through). The monitor's state machine still
// runs — measurements, lifecycles, mailboxes — but nothing stops the
// OS from reading enclave memory directly, which is exactly what the
// E10 experiments demonstrate (and why the paper's hardware
// requirements in §IV-B are requirements).
package baseline

import (
	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/platform/clean"
	"sanctorum/internal/sm"
)

// Platform is the no-isolation backend.
type Platform struct{}

var _ sm.Platform = Platform{}

// New returns the baseline platform adapter.
func New() Platform { return Platform{} }

// Kind implements sm.Platform.
func (Platform) Kind() machine.IsolationKind { return machine.IsolationNone }

// ApplyOSView clears enclave state; nothing is protected.
func (Platform) ApplyOSView(c *machine.Core, osRegions dram.Bitmap) error {
	c.EnclaveMode = false
	c.Satp = 0
	c.ESatp = 0
	c.EvBase, c.EvMask = 0, 0
	c.OSRegions = osRegions
	return nil
}

// ApplyEnclaveView installs the enclave's address space without any
// physical confinement (Keystone-style single root, no PMP).
func (Platform) ApplyEnclaveView(c *machine.Core, v sm.EnclaveView) error {
	c.EnclaveMode = true
	c.Satp = v.RootPPN
	c.EvBase, c.EvMask = v.EvBase, v.EvMask
	c.OSRegions = v.OSRegions
	return nil
}

// RefreshOSRegions records the bitmap; it is not enforced.
func (Platform) RefreshOSRegions(c *machine.Core, osRegions dram.Bitmap) error {
	c.OSRegions = osRegions
	return nil
}

// CleanRegion still scrubs contents (the monitor logic requires it)
// and flushes the region's lines from the shared L2.
func (Platform) CleanRegion(m *machine.Machine, r int) error {
	base, size := m.DRAM.Base(r), m.DRAM.RegionSize()
	if err := m.Mem.ZeroRange(base, size); err != nil {
		return err
	}
	m.L2.FlushRange(base, size)
	return nil
}

// ShootdownRegion invalidates TLB entries into the region, via each
// core's IPI mailbox (acknowledged at instruction boundaries).
func (Platform) ShootdownRegion(m *machine.Machine, r int) { clean.Shootdown(m, r) }
