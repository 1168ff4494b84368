package machine

import (
	"sanctorum/internal/hw/cache"
	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pmp"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/hw/tlb"
	"sanctorum/internal/isa"
)

// ptAccessPerm maps a page-table access class to the PMP permission it
// requires.
func ptAccessPerm(acc pt.Access) pmp.Perm {
	switch acc {
	case pt.Fetch:
		return pmp.X
	case pt.Store:
		return pmp.W
	default:
		return pmp.R
	}
}

func pmpMode(p isa.Priv) pmp.Mode {
	switch p {
	case isa.PrivM:
		return pmp.ModeM
	case isa.PrivS:
		return pmp.ModeS
	default:
		return pmp.ModeU
	}
}

// physOK applies the platform's isolation primitive to a physical
// access. regions is the Sanctum region bitmap of the domain on whose
// behalf the access happens (ignored for other isolation kinds).
func (c *Core) physOK(pa uint64, n uint64, acc pt.Access, mode isa.Priv, regions dram.Bitmap) bool {
	if pa+n < pa || pa+n > c.machine.Mem.Size() {
		return false
	}
	switch c.machine.Kind {
	case IsolationSanctum:
		if mode == isa.PrivM {
			return true
		}
		return regions.ContainsRange(c.machine.DRAM, pa, n)
	case IsolationKeystone:
		return c.PMP.Check(pa, n, ptAccessPerm(acc), pmpMode(mode))
	default:
		return true
	}
}

// walkRoot selects the page-table root and the Sanctum region bitmap
// governing a virtual access on this core. Under Sanctum, enclave-mode
// accesses inside evrange use the enclave's private tables and regions
// (the private page walk of §VII-A); everything else uses the OS root.
func (c *Core) walkRoot(va uint64) (root uint64, regions dram.Bitmap) {
	if c.sanctum && c.EnclaveMode && c.InEvrange(va) {
		return c.ESatp, c.EncRegions
	}
	return c.Satp, c.OSRegions
}

// memFault returns the record of a failed access of the given kind at
// va: the core's fault buffer, as resTrap is for trap records, so a
// failed access allocates nothing. Every consumer turns the record
// into a trap before the core's next access.
func (c *Core) memFault(kind isa.FaultKind, va uint64) *isa.MemFault {
	c.faultRec = isa.MemFault{Kind: kind, Addr: va}
	return &c.faultRec
}

// translate resolves va for an access of width bytes of the given
// access class and privilege mode, returning the physical address and
// the cycle cost of any page walk. The width is what the isolation
// primitive checks: a 1-byte load at the last byte of a permitted
// region must pass, and an 8-byte load there must fault.
func (c *Core) translate(va uint64, width uint64, acc pt.Access, mode isa.Priv) (pa uint64, cycles uint64, fault *isa.MemFault) {
	root, regions := c.walkRoot(va)

	// Bare translation: identity map, physical checks still apply.
	if root == 0 {
		if !c.physOK(va, width, acc, mode, regions) {
			return 0, 0, c.memFault(isa.FaultAccess, va)
		}
		return va, 0, nil
	}

	vpn := (va & pt.VAMask) >> mem.PageBits
	if e, ok := c.TLB.Lookup(vpn); ok {
		if !tlbPermOK(e.Perms, acc, mode) {
			return 0, 0, c.memFault(isa.FaultPage, va)
		}
		return e.PPN<<mem.PageBits | va&mem.PageMask, 0, nil
	}

	// Hardware page walk. Each PTE fetch goes through the shared L2 so
	// walk latency is modeled; PTE reads are checked against the active
	// domain's physical permissions, which is how Sanctum guarantees the
	// walk itself cannot escape the protection domain.
	var walkCycles uint64
	read := func(pteAddr uint64) (uint64, bool) {
		if !c.physOK(pteAddr, 8, pt.Load, mode, regions) {
			return 0, false
		}
		_, cyc := c.machine.L2.Access(pteAddr)
		walkCycles += cyc
		v, err := c.machine.Mem.Load(pteAddr, 8)
		if err != nil {
			return 0, false
		}
		return v, true
	}
	res, wfault := pt.Walk(read, root, va&pt.VAMask, acc, mode == isa.PrivU)
	if wfault != nil {
		kind := isa.FaultPage
		if wfault.Kind == pt.FaultPhysAccess {
			kind = isa.FaultAccess
		}
		return 0, walkCycles, c.memFault(kind, va)
	}
	if !c.physOK(res.PA, width, acc, mode, regions) {
		return 0, walkCycles, c.memFault(isa.FaultAccess, va)
	}
	c.TLB.Insert(tlb.Entry{VPN: vpn, PPN: res.PA >> mem.PageBits, Perms: res.Perms})
	return res.PA, walkCycles, nil
}

// translateFast is translate through a one-entry last-translation
// cache. The short-circuit fires only for accesses the TLB itself
// would serve with the same entry — same VPN, same mode, same walk
// root, and no TLB mutation since the fill — and it charges the TLB
// hit statistic, so the observable TLB state is identical to the
// reference path. Everything else falls through to translate, which
// refills the cache on success.
func (c *Core) translateFast(tc *transCache, va uint64, width uint64, acc pt.Access) (uint64, uint64, *isa.MemFault) {
	mode := c.CPU.Mode
	root, _ := c.walkRoot(va)
	if root != 0 {
		vpn := (va & pt.VAMask) >> mem.PageBits
		if tc.gen == c.TLB.Gen() && tc.vpn == vpn && tc.root == root && tc.mode == mode {
			c.TLB.Hits++
			return tc.paPage | va&mem.PageMask, 0, nil
		}
		pa, cycles, fault := c.translate(va, width, acc, mode)
		if fault == nil {
			// The TLB now holds this VPN with perms that pass for this
			// access class and mode, so future same-page accesses are
			// guaranteed TLB hits until the generation moves.
			*tc = transCache{
				gen:    c.TLB.Gen(),
				vpn:    vpn,
				paPage: pa &^ uint64(mem.PageMask),
				root:   root,
				mode:   mode,
			}
		}
		return pa, cycles, fault
	}
	return c.translate(va, width, acc, mode)
}

func tlbPermOK(perms uint64, acc pt.Access, mode isa.Priv) bool {
	if mode == isa.PrivU && perms&pt.U == 0 {
		return false
	}
	if mode != isa.PrivU && perms&pt.U != 0 {
		return false
	}
	switch acc {
	case pt.Fetch:
		return perms&pt.X != 0
	case pt.Load:
		return perms&pt.R != 0
	default:
		return perms&pt.W != 0
	}
}

// cachedAccess charges the L1/L2 hierarchy for a data or fetch access.
func (c *Core) cachedAccess(pa uint64) uint64 {
	hit, cyc := c.L1.Access(pa)
	if hit {
		return cyc
	}
	_, l2cyc := c.machine.L2.Access(pa)
	return cyc + l2cyc
}

// cachedAccessRef is cachedAccess through a LineRef, so the next
// same-line access can skip the L1 set scan via TouchFast.
func (c *Core) cachedAccessRef(pa uint64, ref *cache.LineRef) uint64 {
	hit, cyc := c.L1.AccessRef(pa, ref)
	if hit {
		return cyc
	}
	_, l2cyc := c.machine.L2.Access(pa)
	return cyc + l2cyc
}
