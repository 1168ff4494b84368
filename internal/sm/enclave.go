package sm

import (
	"sort"

	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/sm/api"
)

// EnclaveState is the ABI-level enclave lifecycle state (paper Fig 3),
// aliased so monitor-internal code and callers share one definition.
type EnclaveState = api.EnclaveState

// Enclave states, re-exported for monitor-side code and tests.
const (
	EnclaveLoading     = api.EnclaveLoading
	EnclaveInitialized = api.EnclaveInitialized
	EnclaveDead        = api.EnclaveDead
)

// Enclave is the monitor's metadata for one enclave. The enclave ID is
// the physical address of its metadata page inside an SM-owned metadata
// region (§V-C), which guarantees IDs are unforgeable names for
// SM-private state.
type Enclave struct {
	objHeader

	ID     uint64
	State  EnclaveState
	EvBase uint64
	EvMask uint64

	// Regions is the set of DRAM regions this enclave owns.
	Regions dram.Bitmap

	// RootPPN is the enclave's private page-table root, the first page
	// of its physical address space (§VI-A).
	RootPPN uint64

	// Page allocation for loading: the enclave's physical pages sorted
	// ascending; loadCursor is the next page to consume, which enforces
	// the paper's monotonically-increasing physical load order.
	pages       []uint64
	loadCursor  int
	pagesFrozen bool // set at first allocation; no further region grants
	dataStarted bool // set at first data page; no further table pages

	// ptPages maps (level, index-path prefix) to the PPN of an
	// allocated page-table page, so the monitor can validate top-down
	// construction without re-walking memory.
	ptPages map[ptKey]uint64

	// mapped tracks loaded VAs to enforce the injective, no-alias
	// virtual→physical mapping the measurement relies on.
	mapped map[uint64]bool

	meas        *Measurement
	Measurement [32]byte // valid once initialized

	Threads   map[uint64]*Thread
	running   int // threads currently on cores
	Mailboxes [api.MailboxesPerEnclave]Mailbox

	// Snapshot/clone state (DESIGN.md §8). snap is non-nil while a live
	// snapshot freezes this enclave's pages (the template side);
	// CloneOf names the snapshot this enclave was forked from (the
	// clone side, 0 for a directly built enclave). Borrowed is the set
	// of template regions a clone's aliased pages live in: part of the
	// enclave's access view but never of its owned-region accounting —
	// deleting the clone must not block the template's regions.
	snap     *Snapshot
	CloneOf  uint64
	Borrowed dram.Bitmap

	// cow maps each virtual page still aliasing a frozen snapshot page
	// copy-on-write (the PTE's W bit is cleared) to that frozen page; a
	// store fault on one of these is resolved by the monitor's
	// copy-then-retry protocol. Populated on the template when the
	// snapshot freezes its writable pages, and on every clone. roAliases
	// lists the frozen pages a clone aliases read-only (never copied,
	// released at clone deletion).
	cow       map[uint64]snapPage
	roAliases []uint64
}

type ptKey struct {
	level  int
	prefix uint64 // va >> (PageBits + 9*(level+1))
}

// createEnclave starts the lifecycle (Fig 3: create_enclave by the OS,
// CallCreateEnclave). The eid a0 must be a free page inside an SM
// metadata region; a1/a2 define the enclave virtual range.
func (mon *Monitor) createEnclave(req api.Request, _ *callContext) api.Response {
	eid, evBase, evMask := req.Args[0], req.Args[1], req.Args[2]
	if !validEvrange(evBase, evMask) {
		return fail(api.ErrInvalidValue)
	}
	e := &Enclave{
		ID:      eid,
		State:   EnclaveLoading,
		EvBase:  evBase,
		EvMask:  evMask,
		ptPages: make(map[ptKey]uint64),
		mapped:  make(map[uint64]bool),
		meas:    NewMeasurement(),
		Threads: make(map[uint64]*Thread),
	}
	e.meas.ExtendCreate(evBase, evMask)
	mon.objMu.Lock()
	defer mon.objMu.Unlock()
	if !mon.register(eid, e) {
		return fail(api.ErrInvalidValue)
	}
	// Mirror the lifecycle state into the metadata page so SM-owned
	// memory actually holds it (and tests can assert the OS cannot
	// read it).
	mon.machine.Mem.Store(eid, 8, uint64(e.State))
	return ok()
}

// validEvrange requires a left-contiguous mask covering at least one
// page and a base aligned to the mask.
func validEvrange(base, mask uint64) bool {
	if mask == 0 {
		return false
	}
	low := ^mask
	if low&(low+1) != 0 { // low bits must be 2^k - 1
		return false
	}
	if low < mem.PageMask {
		return false
	}
	return base&low == 0
}

// InEvrange reports whether va falls within the enclave virtual range.
func (e *Enclave) InEvrange(va uint64) bool {
	return va&e.EvMask == e.EvBase
}

// accessRegions returns the DRAM regions this enclave's accesses may
// reach: the regions it owns plus any borrowed from a snapshot
// template (a clone reads its aliased pages there). Ownership
// accounting — deletion, blocking — uses Regions alone.
func (e *Enclave) accessRegions() dram.Bitmap { return e.Regions | e.Borrowed }

// freezePagesLocked fixes the enclave's physical page list from its
// owned regions. After this point region grants to the loading enclave
// are refused, so the ascending-allocation invariant is meaningful.
func (mon *Monitor) freezePagesLocked(e *Enclave) {
	if e.pagesFrozen {
		return
	}
	e.pagesFrozen = true
	layout := mon.machine.DRAM
	regions := e.Regions.Regions()
	sort.Ints(regions)
	for _, r := range regions {
		base := layout.Base(r) >> mem.PageBits
		for p := uint64(0); p < layout.PagesPerRegion(); p++ {
			e.pages = append(e.pages, base+p)
		}
	}
}

// nextPageLocked consumes the next physical page in ascending order.
func (e *Enclave) nextPageLocked() (uint64, bool) {
	if e.loadCursor >= len(e.pages) {
		return 0, false
	}
	p := e.pages[e.loadCursor]
	e.loadCursor++
	return p, true
}

// allocatePageTable allocates the enclave page-table page that holds
// the PTEs for VA a1 at level a2 (2 = root, 0 = leaf table), in the
// enclave's own memory (Fig 3: allocate_page_table by the OS,
// CallAllocPageTable). Tables must be allocated top-down and before any
// data page, which places them at the base of the enclave's physical
// space as §VI-A requires. The caller holds e's transaction lock.
func (mon *Monitor) allocatePageTable(e *Enclave, req api.Request) api.Response {
	va, level := req.Args[1], int(req.Args[2])
	if e.State != EnclaveLoading || e.dataStarted {
		return fail(api.ErrInvalidState)
	}
	if level < 0 || level >= pt.Levels {
		return fail(api.ErrInvalidValue)
	}
	// Tables may also serve VAs outside evrange: Keystone enclaves map
	// an OS-provided shared window through their own tables (§VII-B).
	mon.freezePagesLocked(e)

	key := ptKey{level: level, prefix: vaPrefix(va, level)}
	if _, dup := e.ptPages[key]; dup {
		return fail(api.ErrInvalidValue)
	}

	// The parent table must already exist (top-down construction).
	var parentPPN uint64
	if level == pt.Levels-1 {
		if e.RootPPN != 0 {
			return fail(api.ErrInvalidValue) // root already allocated
		}
	} else {
		parent, found := e.ptPages[ptKey{level: level + 1, prefix: vaPrefix(va, level+1)}]
		if !found {
			return fail(api.ErrInvalidState)
		}
		parentPPN = parent
	}

	ppn, found := e.nextPageLocked()
	if !found {
		return fail(api.ErrNoResources)
	}
	mon.machine.Mem.ZeroPage(ppn << mem.PageBits)
	e.ptPages[key] = ppn
	if level == pt.Levels-1 {
		e.RootPPN = ppn
	} else {
		pteAddr := parentPPN<<mem.PageBits + pt.VPN(va, level+1)*pt.EntrySize
		mon.machine.Mem.Store(pteAddr, 8, pt.MakePTE(ppn, pt.V))
	}
	// Measure the table's normalized VA prefix, not raw caller bits.
	e.meas.ExtendPageTable(vaPrefix(va, level)<<(mem.PageBits+9*uint(level+1)), level)
	return ok()
}

func vaPrefix(va uint64, level int) uint64 {
	return (va & pt.VAMask) >> (mem.PageBits + 9*uint(level+1))
}

// NormalizeTableVA returns the virtual-address prefix the monitor
// measures for a page-table allocation at the given level. Verifiers
// replaying a measurement transcript (internal/os, internal/attest)
// must use the same normalization.
func NormalizeTableVA(va uint64, level int) uint64 {
	return vaPrefix(va, level) << (mem.PageBits + 9*uint(level+1))
}

// loadPage copies one page of initial contents from untrusted OS memory
// at a2 into the enclave's next physical page and maps it at VA a1
// (Fig 3: load_page by the OS, CallLoadPage). The permissions a3 are a
// combination of pt.R/pt.W/pt.X. The caller holds e's transaction lock.
func (mon *Monitor) loadPage(e *Enclave, req api.Request) api.Response {
	va, srcPA, perms := req.Args[1], req.Args[2], req.Args[3]
	if e.State != EnclaveLoading {
		return fail(api.ErrInvalidState)
	}
	if va&mem.PageMask != 0 || !e.InEvrange(va) {
		return fail(api.ErrInvalidValue)
	}
	if perms&^uint64(pt.R|pt.W|pt.X) != 0 || perms == 0 {
		return fail(api.ErrInvalidValue)
	}
	if e.mapped[va] {
		return fail(api.ErrInvalidValue) // aliasing is forbidden (§VI-A)
	}
	// The source must be OS-owned untrusted memory.
	if !mon.osOwnsRange(srcPA, mem.PageSize) {
		return fail(api.ErrInvalidValue)
	}
	leaf, found := e.ptPages[ptKey{level: 0, prefix: vaPrefix(va, 0)}]
	if !found {
		return fail(api.ErrInvalidState) // leaf table missing
	}
	ppn, found := e.nextPageLocked()
	if !found {
		return fail(api.ErrNoResources)
	}

	var content [mem.PageSize]byte
	if mon.machine.Mem.ReadBytes(srcPA, content[:]) != nil || mon.machine.Mem.WriteBytes(ppn<<mem.PageBits, content[:]) != nil {
		return fail(api.ErrInvalidValue)
	}
	pteAddr := leaf<<mem.PageBits + pt.VPN(va, 0)*pt.EntrySize
	mon.machine.Mem.Store(pteAddr, 8, pt.MakePTE(ppn, perms|pt.V|pt.U))

	e.mapped[va] = true
	e.dataStarted = true
	e.meas.ExtendPage(va, perms, content[:])
	return ok()
}

// mapShared maps the OS-owned physical page a2 into the enclave's page
// tables at VA a1 outside evrange: the Keystone-style untrusted shared
// buffer (§VII-B, CallMapShared). The mapping's address is measured (it
// is configuration) but its contents are not (they are untrusted by
// definition and the OS can change them at any time). The caller holds
// e's transaction lock.
func (mon *Monitor) mapShared(e *Enclave, req api.Request) api.Response {
	va, pa := req.Args[1], req.Args[2]
	if e.State != EnclaveLoading {
		return fail(api.ErrInvalidState)
	}
	// The private range must hold only private pages, aliasing is
	// forbidden, and the page must be OS-owned.
	if va&mem.PageMask != 0 || pa&mem.PageMask != 0 || e.InEvrange(va) || e.mapped[va] ||
		!mon.osOwnsRange(pa, mem.PageSize) {
		return fail(api.ErrInvalidValue)
	}
	pteAddr, found := mon.leafPTEAddr(e, va)
	if !found {
		return fail(api.ErrInvalidState)
	}
	mon.machine.Mem.Store(pteAddr, 8, pt.MakePTE(pa>>mem.PageBits, pt.R|pt.W|pt.V|pt.U))
	e.mapped[va] = true
	e.meas.ExtendShared(va)
	return ok()
}

// osOwnsRange reports whether [pa, pa+n) lies wholly in OS-owned
// regions, against the live atomic bitmap (no locks taken).
func (mon *Monitor) osOwnsRange(pa, n uint64) bool {
	return mon.osRegions().ContainsRange(mon.machine.DRAM, pa, n)
}

// initEnclave seals the enclave (Fig 3: init_enclave by the OS,
// CallInitEnclave): the measurement is finalized and threads become
// schedulable. An enclave without page tables cannot run. The caller
// holds e's transaction lock.
func (mon *Monitor) initEnclave(e *Enclave, _ api.Request) api.Response {
	if e.State != EnclaveLoading || e.RootPPN == 0 {
		return fail(api.ErrInvalidState)
	}
	e.Measurement = e.meas.Finalize()
	e.State = EnclaveInitialized
	mon.machine.Mem.Store(e.ID, 8, uint64(e.State))
	mon.machine.Mem.WriteBytes(e.ID+8, e.Measurement[:])
	return ok()
}

// enclaveStatus reports the enclave lifecycle state and, when a1 is
// non-zero, writes the 32-byte measurement to that OS-owned physical
// address (CallEnclaveStatus). The caller holds e's transaction lock.
func (mon *Monitor) enclaveStatus(e *Enclave, req api.Request) api.Response {
	if pa := req.Args[1]; pa != 0 && !mon.writeCaller(nil, pa, e.Measurement[:]) {
		return fail(api.ErrInvalidValue)
	}
	return ok(uint64(e.State))
}

// deleteEnclave tears enclave a0 down (Fig 3: delete_enclave by the
// OS, CallDeleteEnclave): refused while any thread is scheduled; all
// owned regions become blocked and must be cleaned before
// re-allocation; threads revert to the available pool.
//
// Snapshot interactions: a template with a live snapshot cannot be
// deleted (its frozen pages back outstanding clones — the snapshot
// must be released first, which in turn requires zero clones), so page
// reclamation is deferred behind the refcounted alias graph rather
// than risked. Deleting a clone releases its alias references and
// decrements the snapshot's clone count; the clone's own regions (page
// tables, COW copies) block and clean normally.
//
// The transaction acquires every lock it will need — the enclave, the
// snapshot it clones (if any), every thread, and every region it owns
// or has pending — with TryLock before mutating anything, so under
// contention it fails with ErrRetry having changed no state (§V-A).
func (mon *Monitor) deleteEnclave(req api.Request, _ *callContext) api.Response {
	eid := req.Args[0]
	e, st := lookup[*Enclave](mon, LockEnclave, eid)
	if st != api.OK {
		return fail(st)
	}
	defer e.mu.Unlock()
	if e.running > 0 || e.snap != nil { // live snapshot: release it first
		return fail(api.ErrInvalidState)
	}
	// One registry scan. A live ring or grant endpoint blocks deletion,
	// like a live snapshot: a freed eid could otherwise be recreated and
	// inherit the dead enclave's rings — including undelivered messages
	// meant for the previous tenant — and a revoke relies on its
	// endpoints existing. The OS destroys and revokes them first.
	// Endpoint identities are immutable, and lockEndpoints registers only
	// while holding the endpoint enclave's lock (held here for the whole
	// transaction), so the scan cannot race a new attachment. The scan
	// also collects every thread: threads offered to this enclave are not
	// in e.Threads, but their Owner names it, and leaving that dangling
	// would let a new enclave recreated under the freed eid accept_thread
	// a thread the dead tenant was offered.
	busy := false
	mon.objMu.RLock()
	threads := make([]*Thread, 0, len(mon.objects))
	for _, o := range mon.objects {
		switch o := o.(type) {
		case *Thread:
			threads = append(threads, o)
		case *Ring:
			busy = busy || o.isEndpoint(eid)
		case *Grant:
			busy = busy || o.isEndpoint(eid)
		}
	}
	mon.objMu.RUnlock()
	if busy {
		return fail(api.ErrInvalidState)
	}
	var snap *Snapshot
	if e.CloneOf != 0 {
		if snap, _ = get[*Snapshot](mon, e.CloneOf); snap != nil {
			if !mon.tryLock(&snap.mu, LockSnapshot, e.CloneOf) {
				return fail(api.ErrRetry)
			}
			defer snap.mu.Unlock()
		}
	}
	// Ownership is thread state, checked under each thread's own lock;
	// holding e.mu excludes new offers and accepts racing the pass. The
	// kept threads reuse the scan's slice.
	owned := threads[:0]
	var lockedRegions []int
	unlockAll := func() {
		for _, th := range owned {
			th.mu.Unlock()
		}
		for _, r := range lockedRegions {
			mon.regions[r].mu.Unlock()
		}
	}
	for _, th := range threads {
		if !mon.tryLock(&th.mu, LockThread, th.ID) {
			unlockAll()
			return fail(api.ErrRetry)
		}
		if th.Owner == eid {
			owned = append(owned, th)
		} else {
			th.mu.Unlock()
		}
	}
	// Every region lock, owned or pending, before the first mutation. A
	// contended region — even one that turns out not to involve this
	// enclave — fails the delete; conservative, and the caller retries.
	for r := range mon.regions {
		rm := &mon.regions[r]
		if !mon.tryLock(&rm.mu, LockRegion, uint64(r)) {
			unlockAll()
			return fail(api.ErrRetry)
		}
		if e.Regions.Has(r) || (rm.state == RegionPending && rm.owner == eid) {
			lockedRegions = append(lockedRegions, r)
		} else {
			rm.mu.Unlock()
		}
	}
	// All locks held; mutate — only regions whose locks we kept (the
	// others may be mid-transaction on another hart, and holding e.mu
	// guarantees no new grant can attach this enclave to them). Owned
	// regions hold enclave secrets until cleaned; pending grants revert
	// to the OS.
	for _, r := range lockedRegions {
		rm := &mon.regions[r]
		if e.Regions.Has(r) {
			// Ownership reverts to the OS pool at block time (the owner
			// field has no meaning once the bitmap link is severed, and a
			// blocked region must never name a dead enclave); the secrets
			// stay sealed until clean_region scrubs the region.
			rm.state, rm.owner = RegionBlocked, api.DomainOS
		} else if rm.state == RegionPending && rm.owner == eid {
			rm.state, rm.owner = RegionOwned, api.DomainOS
			mon.setOSOwned(r, true)
		}
	}

	// A clone's alias references die with it: one per page still
	// aliased copy-on-write, one per read-only alias, and the
	// snapshot's clone count. The frozen pages themselves live in the
	// template's regions and are untouched.
	if snap != nil {
		for _, pg := range e.cow {
			mon.machine.Mem.ReleaseRef(pg.ppn << mem.PageBits)
		}
		for _, ppn := range e.roAliases {
			mon.machine.Mem.ReleaseRef(ppn << mem.PageBits)
		}
		e.cow, e.roAliases = nil, nil
		snap.clones--
	}
	for _, th := range owned {
		th.State, th.Owner = ThreadAvailable, 0
		th.clearContext()
	}
	mon.objMu.Lock()
	mon.unregister(eid)
	mon.objMu.Unlock()
	unlockAll()
	mon.refreshViews()
	// The lifecycle state follows the dead flag, so a transaction that
	// fetched e before the delete and locks it without the lookup (a
	// region grant) refuses a dead enclave.
	e.State = EnclaveDead
	return ok()
}
