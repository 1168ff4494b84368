package machine

import (
	"sanctorum/internal/hw/cache"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
)

// The core implements isa.Bus, plus the decoded-fetch fast path the
// run loop drives directly: every fetch, load and store of the running
// program is translated, isolation-checked and cache-timed. The fast path (FetchDecoded, and the Window accesses in
// Load/Store) changes only host-side cost; modeled cycles, TLB
// statistics and cache state are bit-identical to the reference path,
// which TestFastSlowEquivalence checks opcode by opcode.

// FetchInstr implements isa.Bus; this is the reference fetch path.
func (c *Core) FetchInstr(va uint64) (uint64, uint64, *isa.MemFault) {
	pa, walkCyc, fault := c.translate(va, 8, pt.Fetch, c.CPU.Mode)
	if fault != nil {
		return 0, walkCyc, fault
	}
	cyc := c.cachedAccess(pa)
	word, err := c.machine.Mem.Load(pa, 8)
	if err != nil {
		return 0, walkCyc + cyc, &isa.MemFault{Kind: isa.FaultAccess, Addr: va}
	}
	return word, walkCyc + cyc, nil
}

// fetchHit is the full fetch fast path: it fires only when the decode
// cache, the translation layers and the L1 line are all provably
// unchanged (see icEntry), and then performs exactly the statistic
// updates of the reference pipeline's TLB-hit + L1-hit outcome. A bare
// (root == 0) fetch never hits: the reference path re-checks physOK
// against the live isolation state on every bare access, and entries
// cached from bare mode carry tlbGen 0, which never equals the TLB's
// generation. Kept small so Machine.Run's hot loop can call it
// directly and cheaply before falling back to FetchDecoded; the hit
// cycle cost is the core's l1Hit.
func (c *Core) fetchHit(va uint64) *icEntry {
	e := &c.icache[(va>>3)&(icEntries-1)]
	if e.gen != c.icGen.Load() || e.va != va || e.tgMode != tgMode(c.TLB.Gen(), c.CPU.Mode) {
		return nil
	}
	if root, _ := c.walkRoot(va); root != e.root {
		return nil
	}
	if !c.L1.TouchFast(e.pa, &e.lref) {
		return nil
	}
	c.TLB.Hits++
	return e
}

// FetchDecoded is the decoded fetch: fetchHit, falling back to
// fetchSlow. When the decode-cache entry for va is live across every
// layer — no code write, no TLB mutation, same walk root and mode,
// and the L1 line still resident — the reference pipeline is
// guaranteed to produce a TLB hit and an L1 hit for this same PA, so
// the fetch reduces to exactly those statistic updates (fetchHit).
// Any stale layer falls back to that layer's slower (but still
// cached) path in fetchSlow; the final fallback is the reference
// pipeline plus a Decode. Hot callers (Machine.Run) call the two
// halves directly so a decode-cache miss validates each layer once.
func (c *Core) FetchDecoded(va uint64) (isa.Instr, uint64, *isa.MemFault) {
	if e := c.fetchHit(va); e != nil {
		return e.in, c.l1Hit, nil
	}
	return c.fetchSlow(va)
}

// fetchSlow is FetchDecoded behind a fetchHit miss: layer-wise refill
// of the decode-cache entry.
func (c *Core) fetchSlow(va uint64) (isa.Instr, uint64, *isa.MemFault) {
	root, _ := c.walkRoot(va)
	icGen := c.icGen.Load()
	e := &c.icache[(va>>3)&(icEntries-1)]
	if e.gen == icGen && e.va == va &&
		e.tgMode == tgMode(c.TLB.Gen(), c.CPU.Mode) && e.root == root {
		// Translation and decode are valid; only the instruction's L1
		// line left its way. Redo the cache access, keep everything else.
		c.TLB.Hits++
		cyc := c.cachedAccessRef(e.pa, &e.lref)
		return e.in, cyc, nil
	}
	pa, walkCyc, fault := c.translateFast(&c.fetchTC, va, 8, pt.Fetch)
	if fault != nil {
		return isa.Instr{}, walkCyc, fault
	}
	// Bare (root == 0) translations store tgMode 0: TLB generations
	// start at 1, so such an entry can never take the full fast path,
	// which matches the reference path re-checking physOK on every
	// bare access.
	tg := uint64(0)
	if root != 0 {
		tg = tgMode(c.TLB.Gen(), c.CPU.Mode)
	}
	var lref cache.LineRef
	cyc := walkCyc + c.cachedAccessRef(pa, &lref)
	if e.gen == icGen && e.va == va && e.pa == pa {
		// The word is unchanged (any write to it would have bumped
		// icGen); refresh the translation and L1 layers, keep the decode.
		e.tgMode, e.root, e.lref = tg, root, lref
		return e.in, cyc, nil
	}
	// Mark the page BEFORE reading the word: a store from another hart
	// that lands after the mark bumps icGen via the code-write snoop,
	// and this entry carries the pre-snapshot generation, so it dies
	// immediately. Marking after the read would leave a window where a
	// racing store goes unsnooped and a stale decode survives.
	c.machine.markCodePage(pa)
	word := c.fetchWin.LoadFast(pa, 8)
	c.bstats.Decodes++
	*e = icEntry{
		va: va, pa: pa, gen: icGen,
		tgMode: tg, root: root,
		in: isa.Decode(word), lref: lref,
	}
	return e.in, cyc, nil
}

// Load implements isa.Bus.
func (c *Core) Load(va uint64, width int) (uint64, uint64, *isa.MemFault) {
	if va&(uint64(width)-1) != 0 {
		return 0, 0, &isa.MemFault{Kind: isa.FaultMisaligned, Addr: va}
	}
	if c.fastPath {
		pa, walkCyc, fault := c.translateFast(&c.loadTC, va, uint64(width), pt.Load)
		if fault != nil {
			return 0, walkCyc, fault
		}
		cyc := c.l1Hit
		if !c.L1.TouchFast(pa, &c.loadRef) {
			cyc = c.cachedAccessRef(pa, &c.loadRef)
		}
		// pa is aligned and isolation-bounded, so the unchecked window
		// access is safe (see Window.LoadFast).
		return c.loadWin.LoadFast(pa, width), walkCyc + cyc, nil
	}
	pa, walkCyc, fault := c.translate(va, uint64(width), pt.Load, c.CPU.Mode)
	if fault != nil {
		return 0, walkCyc, fault
	}
	cyc := c.cachedAccess(pa)
	val, err := c.machine.Mem.Load(pa, width)
	if err != nil {
		return 0, walkCyc + cyc, &isa.MemFault{Kind: isa.FaultAccess, Addr: va}
	}
	return val, walkCyc + cyc, nil
}

// Store implements isa.Bus. A store reaching a copy-on-write frozen
// page (an enclave-snapshot alias whose PTE write-clear a stale TLB
// entry bypassed) faults as an access fault in both engines — the
// physical-memory backstop of the monitor's snapshot subsystem. The
// COW check runs after the cache access, so modeled cycles and cache
// state stay identical between the fast and reference paths.
func (c *Core) Store(va uint64, width int, val uint64) (uint64, *isa.MemFault) {
	if va&(uint64(width)-1) != 0 {
		return 0, &isa.MemFault{Kind: isa.FaultMisaligned, Addr: va}
	}
	if c.fastPath {
		pa, walkCyc, fault := c.translateFast(&c.storeTC, va, uint64(width), pt.Store)
		if fault != nil {
			return walkCyc, fault
		}
		cyc := c.l1Hit
		if !c.L1.TouchFast(pa, &c.storeRef) {
			cyc = c.cachedAccessRef(pa, &c.storeRef)
		}
		if cow, _ := c.storeWin.StoreFast(pa, width, val); cow {
			return walkCyc + cyc, &isa.MemFault{Kind: isa.FaultAccess, Addr: va}
		}
		return walkCyc + cyc, nil
	}
	pa, walkCyc, fault := c.translate(va, uint64(width), pt.Store, c.CPU.Mode)
	if fault != nil {
		return walkCyc, fault
	}
	cyc := c.cachedAccess(pa)
	if err := c.machine.Mem.Store(pa, width, val); err != nil {
		return walkCyc + cyc, &isa.MemFault{Kind: isa.FaultAccess, Addr: va}
	}
	return walkCyc + cyc, nil
}

// LoadAs performs a one-off data load on this core's translation state
// with an explicit privilege mode. Go-level untrusted OS code uses this
// (with isa.PrivS) so that its accesses face exactly the checks an
// S-mode kernel would.
func (c *Core) LoadAs(mode isa.Priv, va uint64, width int) (uint64, error) {
	if va&(uint64(width)-1) != 0 {
		return 0, &isa.Trap{Cause: isa.CauseMisalignedLoad, Value: va}
	}
	pa, _, fault := c.translate(va, uint64(width), pt.Load, mode)
	if fault != nil {
		return 0, &isa.Trap{Cause: trapCauseFor(fault, pt.Load), PC: 0, Value: va}
	}
	c.cachedAccess(pa)
	return c.machine.Mem.Load(pa, width)
}

// StoreAs is the store counterpart of LoadAs.
func (c *Core) StoreAs(mode isa.Priv, va uint64, width int, val uint64) error {
	if va&(uint64(width)-1) != 0 {
		return &isa.Trap{Cause: isa.CauseMisalignedStore, Value: va}
	}
	pa, _, fault := c.translate(va, uint64(width), pt.Store, mode)
	if fault != nil {
		return &isa.Trap{Cause: trapCauseFor(fault, pt.Store), PC: 0, Value: va}
	}
	c.cachedAccess(pa)
	return c.machine.Mem.Store(pa, width, val)
}

func trapCauseFor(f *isa.MemFault, acc pt.Access) isa.Cause {
	switch {
	case acc == pt.Load && f.Kind == isa.FaultPage:
		return isa.CauseLoadPageFault
	case acc == pt.Load:
		return isa.CauseLoadAccess
	case acc == pt.Store && f.Kind == isa.FaultPage:
		return isa.CauseStorePageFault
	default:
		return isa.CauseStoreAccess
	}
}
