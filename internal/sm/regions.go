package sm

import (
	"math/bits"
	"sync"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/sm/api"
)

// RegionState is the ABI-level region lifecycle state (paper Fig 2),
// aliased so monitor-internal code and callers share one definition.
type RegionState = api.RegionState

// Region states, re-exported for monitor-side code and tests.
const (
	RegionOwned     = api.RegionOwned
	RegionPending   = api.RegionPending
	RegionBlocked   = api.RegionBlocked
	RegionAvailable = api.RegionAvailable
)

// regionMeta is the monitor's metadata for one DRAM region. The mutex
// is the region's §V-A transaction lock: every transition TryLocks it
// and fails with ErrRetry under contention. Whichever transaction
// changes ownership also maintains the monitor's live osBitmap before
// releasing the lock, so the atomic bitmap is always consistent with
// the locked states.
type regionMeta struct {
	mu    sync.Mutex
	state RegionState
	owner uint64 // DomainOS, DomainSM, or eid
}

// regionInfo reports region a0's state and owner (CallRegionInfo).
func (mon *Monitor) regionInfo(req api.Request, _ *callContext) api.Response {
	r := indexArg(req.Args[0])
	if r < 0 || r >= len(mon.regions) {
		return fail(api.ErrInvalidValue)
	}
	rm := &mon.regions[r]
	if !mon.tryLock(&rm.mu, LockRegion, uint64(r)) {
		return fail(api.ErrRetry)
	}
	resp := api.Response{Status: api.OK, Values: [2]uint64{uint64(rm.state), rm.owner}}
	rm.mu.Unlock()
	return resp
}

// grantRegion re-allocates an available region a0 to a new owner a1,
// or — for a loading enclave or the SM — transfers it directly. Called
// by the untrusted OS (grant(resource, new_owner) in Fig 2,
// CallGrantRegion). Granting to the SM turns the region into a metadata
// region (§V-B: metadata must wholly reside in SM-owned memory). Giving
// away an OS-owned region fails with ErrNoResources, changing nothing,
// when the platform could not express the OS view without it.
func (mon *Monitor) grantRegion(req api.Request, _ *callContext) api.Response {
	r, newOwner := indexArg(req.Args[0]), req.Args[1]
	if r < 0 || r >= len(mon.regions) {
		return fail(api.ErrInvalidValue)
	}
	rm := &mon.regions[r]
	if !mon.tryLock(&rm.mu, LockRegion, uint64(r)) {
		return fail(api.ErrRetry)
	}
	defer rm.mu.Unlock()

	// The OS may give away a region it owns, or re-allocate a cleaned
	// one; it may never touch regions in other states.
	switch rm.state {
	case RegionAvailable:
	case RegionOwned:
		if rm.owner != api.DomainOS {
			return fail(api.ErrUnauthorized)
		}
	default:
		return fail(api.ErrInvalidState)
	}

	switch newOwner {
	case api.DomainOS:
		rm.state, rm.owner = RegionOwned, api.DomainOS
		mon.osBitmap.Or(1 << uint(r))
	case api.DomainSM:
		if !mon.leaveOS(r) {
			return fail(api.ErrNoResources)
		}
		rm.state, rm.owner = RegionOwned, api.DomainSM
		mon.objMu.Lock()
		mon.metaRgn[r] = true
		mon.objMu.Unlock()
	default:
		e, found := get[*Enclave](mon, newOwner)
		if !found {
			return fail(api.ErrInvalidValue)
		}
		if !mon.tryLock(&e.mu, LockEnclave, newOwner) {
			return fail(api.ErrRetry)
		}
		defer e.mu.Unlock()
		// Grants during loading take effect immediately; they must
		// precede any page loads so the ascending-page invariant can be
		// established over the final region set. Running enclaves must
		// accept offered resources (Fig 2).
		loading := e.State == EnclaveLoading && !e.pagesFrozen
		if !loading && e.State != EnclaveInitialized {
			return fail(api.ErrInvalidState)
		}
		if !mon.leaveOS(r) {
			return fail(api.ErrNoResources)
		}
		if loading {
			rm.state, rm.owner = RegionOwned, newOwner
			e.Regions = e.Regions.Set(r)
			e.publishAccess()
		} else {
			rm.state, rm.owner = RegionPending, newOwner
			e.Pending = e.Pending.Set(r)
		}
	}

	mon.refreshViews()
	return ok()
}

// blockRegion relinquishes region a0 on behalf of its owner, the
// caller (block(resource) in Fig 2, CallBlockRegion): the OS from a
// host-side Request, an enclave from its trap context. The OS is
// refused like a grant when its view could not lose the region.
func (mon *Monitor) blockRegion(req api.Request, ctx *callContext) api.Response {
	r := indexArg(req.Args[0])
	if r < 0 || r >= len(mon.regions) {
		return fail(api.ErrInvalidValue)
	}
	rm := &mon.regions[r]
	if !mon.tryLock(&rm.mu, LockRegion, uint64(r)) {
		return fail(api.ErrRetry)
	}
	defer rm.mu.Unlock()
	// Take every lock the transaction needs before mutating anything,
	// so a contention failure leaves no state half-changed.
	var e *Enclave
	if ctx != nil {
		e = ctx.enclave
		if !mon.tryLock(&e.mu, LockEnclave, e.ID) {
			return fail(api.ErrRetry)
		}
		defer e.mu.Unlock()
	}
	if rm.state != RegionOwned {
		return fail(api.ErrInvalidState)
	}
	if rm.owner != ctx.domain() {
		return fail(api.ErrUnauthorized)
	}
	if e != nil && e.snap != nil && e.CloneOf == 0 {
		// A frozen template's regions hold pages clones alias; they
		// cannot leave the template until the snapshot is released.
		return fail(api.ErrInvalidState)
	}
	if e == nil {
		if !mon.leaveOS(r) {
			return fail(api.ErrNoResources)
		}
	} else {
		e.Regions = e.Regions.Clear(r)
		e.publishAccess()
	}
	// Ownership reverts to the OS pool immediately: nothing reads the
	// old owner once the state is Blocked (clean_region resets it
	// anyway), and leaving it would let a region name an enclave that
	// has since been deleted.
	rm.state, rm.owner = RegionBlocked, api.DomainOS

	mon.refreshViews()
	return ok()
}

// cleanRegion scrubs the blocked region a0 and makes it available
// (clean(resource) by the OS in Fig 2, CallCleanRegion). The monitor
// zeroes the region and flushes its lines from the shared L2, then
// makes one round of every core — running harts acknowledge at their
// next instruction boundary — that flushes the region's lines from the
// core's L1 and drops the core's TLB translations into it, before the
// region can reach a new protection domain. The OS-owned set and every
// enclave's access set are as they were, so no view needs a refresh.
// OS (no-hart) context only: it waits for every core, holding only the
// region's lock, which no hart ever blocks on.
func (mon *Monitor) cleanRegion(req api.Request, _ *callContext) api.Response {
	r := indexArg(req.Args[0])
	if r < 0 || r >= len(mon.regions) {
		return fail(api.ErrInvalidValue)
	}
	rm := &mon.regions[r]
	if !mon.tryLock(&rm.mu, LockRegion, uint64(r)) {
		return fail(api.ErrRetry)
	}
	defer rm.mu.Unlock()
	if rm.state != RegionBlocked {
		return fail(api.ErrInvalidState)
	}
	// Defense in depth for the snapshot subsystem: a region whose pages
	// still carry alias references (frozen snapshot pages with live
	// clones) must never be scrubbed — the block/delete guards already
	// prevent reaching here, but the refcount is the ground truth.
	layout := mon.machine.DRAM
	base, size := layout.Base(r), layout.RegionSize()
	if mon.machine.Mem.RangeHasRefs(base, size) {
		return fail(api.ErrInvalidState)
	}
	if mon.machine.Mem.ZeroRange(base, size) != nil {
		return fail(api.ErrInvalidValue)
	}
	mon.machine.L2.FlushRange(base, size)
	mon.machine.Broadcast(machine.NoHart, true, flushRegions, 1<<uint(r), uint64(layout.RegionShift), 1)
	rm.state, rm.owner = RegionAvailable, api.DomainOS
	return ok()
}

// flushRegions is the request a region change sends every core: it
// drops core c's TLB translations into each region of the bitmap set
// and, when l1 is non-zero, the regions' lines from c's L1. shift is
// the DRAM region shift.
func flushRegions(c *machine.Core, set, shift, l1 uint64) {
	for ; set != 0; set &= set - 1 {
		base, size := uint64(bits.TrailingZeros64(set))<<shift, uint64(1)<<shift
		if l1 != 0 {
			c.L1.FlushRange(base, size)
		}
		c.TLB.FlushFrames(base>>mem.PageBits, size>>mem.PageBits)
	}
}

// acceptRegion completes a pending grant of region a0 (accept_resource
// by the enclave, Fig 2).
func (mon *Monitor) acceptRegion(req api.Request, ctx *callContext) api.Response {
	e, r := ctx.enclave, indexArg(req.Args[0])
	if r < 0 || r >= len(mon.regions) {
		return fail(api.ErrInvalidValue)
	}
	rm := &mon.regions[r]
	if !mon.tryLock(&rm.mu, LockRegion, uint64(r)) {
		return fail(api.ErrRetry)
	}
	defer rm.mu.Unlock()
	if !mon.tryLock(&e.mu, LockEnclave, e.ID) {
		return fail(api.ErrRetry)
	}
	defer e.mu.Unlock()
	if rm.state != RegionPending || rm.owner != e.ID {
		return fail(api.ErrInvalidState)
	}
	rm.state = RegionOwned
	e.Pending = e.Pending.Clear(r)
	e.Regions = e.Regions.Set(r)
	e.publishAccess()

	mon.refreshViews()
	return ok()
}
