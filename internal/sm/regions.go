package sm

import (
	"sync"

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
// region (§V-B: metadata must wholly reside in SM-owned memory).
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
		mon.setOSOwned(r, true)
	case api.DomainSM:
		rm.state, rm.owner = RegionOwned, api.DomainSM
		mon.setOSOwned(r, false)
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
		switch e.State {
		case EnclaveLoading:
			// Grants during loading take effect immediately; they must
			// precede any page loads so the ascending-page invariant
			// can be established over the final region set.
			if e.pagesFrozen {
				return fail(api.ErrInvalidState)
			}
			rm.state, rm.owner = RegionOwned, newOwner
			e.Regions = e.Regions.Set(r)
		case EnclaveInitialized:
			// Running enclaves must accept offered resources (Fig 2).
			rm.state, rm.owner = RegionPending, newOwner
		default:
			return fail(api.ErrInvalidState)
		}
		mon.setOSOwned(r, false)
	}

	mon.refreshViews()
	return ok()
}

// blockRegion relinquishes region a0 on behalf of its owner, the
// caller (block(resource) in Fig 2, CallBlockRegion): the OS from a
// host-side Request, an enclave from its trap context.
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
	// Ownership reverts to the OS pool immediately: nothing reads the
	// old owner once the state is Blocked (clean_region resets it
	// anyway), and leaving it would let a region name an enclave that
	// has since been deleted.
	rm.state, rm.owner = RegionBlocked, api.DomainOS
	if e == nil {
		mon.setOSOwned(r, false)
	} else {
		e.Regions = e.Regions.Clear(r)
	}

	mon.refreshViews()
	return ok()
}

// cleanRegion scrubs the blocked region a0 and makes it available
// (clean(resource) by the OS in Fig 2, CallCleanRegion). The monitor
// zeroes the region, flushes its cache footprint, and shoots down TLB
// entries on every core — the cross-core work travels as
// inter-processor mailbox requests that running harts acknowledge at
// instruction boundaries — before the region can reach a new protection
// domain. OS (no-hart) context only.
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
	if mon.machine.Mem.RangeHasRefs(layout.Base(r), layout.RegionSize()) {
		return fail(api.ErrInvalidState)
	}
	if err := mon.plat.CleanRegion(mon.machine, r); err != nil {
		return fail(api.ErrInvalidValue)
	}
	mon.plat.ShootdownRegion(mon.machine, r)
	rm.state, rm.owner = RegionAvailable, api.DomainOS

	mon.refreshViews()
	return ok()
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
	e.Regions = e.Regions.Set(r)

	mon.refreshViews()
	return ok()
}
