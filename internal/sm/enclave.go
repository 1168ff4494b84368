package sm

import (
	"slices"
	"sync/atomic"

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

	// Regions is the set of DRAM regions this enclave owns, Pending the
	// regions granted to it and not yet accepted.
	Regions dram.Bitmap
	Pending dram.Bitmap
	// access is accessRegions' set, published by every change to
	// Regions or Borrowed so the view refresh reads it without e.mu.
	access atomic.Uint64

	// RootPPN is the enclave's private page-table root, the first page
	// of its physical address space (§VI-A).
	RootPPN uint64

	// Page allocation: loadCursor is the lowest physical page number
	// the enclave may consume next, which enforces the paper's
	// monotonically-increasing physical load order (nextPageLocked).
	loadCursor  uint64
	pagesFrozen bool // set at first allocation; no further region grants
	dataStarted bool // set at first data page; no further table pages

	// ptPages lists the allocated page-table pages in canonical order
	// (root first, then each level top-down by ascending prefix), so the
	// monitor can validate top-down construction without re-walking
	// memory. An enclave has a few; a linear scan finds one.
	ptPages []ptPage

	// mapped tracks loaded VAs to enforce the injective, no-alias
	// virtual→physical mapping the measurement relies on. The root
	// table's allocation creates it, so a clone never has one.
	mapped map[uint64]bool

	// meas is the running measurement transcript, nil until the first
	// call that measures (measurement); a clone, sealed with its
	// template's measurement, never starts one.
	meas        *Measurement
	Measurement [32]byte // valid once initialized

	// Threads lists every thread whose Owner is this enclave, offered,
	// assigned or running, each once.
	Threads   []*Thread
	running   int // threads currently on cores
	Mailboxes [api.MailboxesPerEnclave]Mailbox

	// links are the live rings and grants naming this enclave as an
	// endpoint, in creation order, guarded by the monitor's objMu:
	// lockEndpoints appends under e's lock, and ring_destroy and
	// bulk_revoke remove at unregister.
	links []link

	// Snapshot/clone state (DESIGN.md §8). CloneOf names the snapshot
	// this enclave was forked from (0 for a directly built enclave).
	// snap is the snapshot whose table cow indexes: for a template
	// (CloneOf == 0) the live snapshot freezing its pages, for a clone
	// its origin. Borrowed is the set of template regions a clone's
	// aliased pages live in: part of the enclave's access view but
	// never of its owned-region accounting — deleting the clone must
	// not block the template's regions.
	snap     *Snapshot
	CloneOf  uint64
	Borrowed dram.Bitmap

	// cow is a bitmap over snap.table of the pages still aliased
	// copy-on-write (the PTE's W bit is cleared); a store fault on one
	// of these is resolved by the monitor's copy-then-retry protocol. A
	// clone also aliases every read-only private page of the table,
	// never copied and released at clone deletion.
	cow []uint64
}

// measurement returns e's measurement transcript, starting it with the
// create record on first use: every transcript opens with the evrange,
// and an enclave that is only ever a clone shell never hashes at all.
func (e *Enclave) measurement() *Measurement {
	if e.meas == nil {
		e.meas = NewMeasurement()
		e.meas.ExtendCreate(e.EvBase, e.EvMask)
	}
	return e.meas
}

// ptKey names a page-table page: its level (2 = root, 0 = leaf) and
// the normalized prefix of the VAs it serves.
type ptKey struct {
	level  int
	prefix uint64 // va >> (PageBits + 9*(level+1))
}

// ptPage is one allocated page-table page.
type ptPage struct {
	ptKey
	ppn uint64
}

// tableIndex finds k in e.ptPages: its index and true, or the index
// that keeps the list canonical if k were inserted, and false.
func (e *Enclave) tableIndex(k ptKey) (int, bool) {
	for i, t := range e.ptPages {
		if t.ptKey == k {
			return i, true
		}
		if t.level < k.level || t.level == k.level && t.prefix > k.prefix {
			return i, false
		}
	}
	return len(e.ptPages), false
}

// table returns the PPN of e's page-table page k.
func (e *Enclave) table(level int, prefix uint64) (uint64, bool) {
	if i, found := e.tableIndex(ptKey{level, prefix}); found {
		return e.ptPages[i].ppn, true
	}
	return 0, false
}

// createEnclave starts the lifecycle (Fig 3: create_enclave by the OS,
// CallCreateEnclave). The eid a0 must be a free page inside an SM
// metadata region; a1/a2 define the enclave virtual range.
func (mon *Monitor) createEnclave(req api.Request, _ *callContext) api.Response {
	eid, evBase, evMask := req.Args[0], req.Args[1], req.Args[2]
	if !validEvrange(evBase, evMask) {
		return fail(api.ErrInvalidValue)
	}
	e := &Enclave{ID: eid, State: EnclaveLoading, EvBase: evBase, EvMask: evMask}
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
func (e *Enclave) accessRegions() dram.Bitmap { return dram.Bitmap(e.access.Load()) }

// publishAccess republishes the access set after a change to Regions
// or Borrowed. The caller holds e's transaction lock.
func (e *Enclave) publishAccess() { e.access.Store(uint64(e.Regions | e.Borrowed)) }

// nextPageLocked consumes the next physical page in ascending order
// from the regions the enclave owns now: a region it has blocked since
// is skipped, so no page is ever taken from memory it gave up, and an
// enclave with no page left fails the allocation.
func (mon *Monitor) nextPageLocked(e *Enclave) (uint64, bool) {
	per := mon.machine.DRAM.PagesPerRegion()
	for p := e.loadCursor; p < uint64(mon.machine.DRAM.RegionCount)*per; p = (p/per + 1) * per {
		if e.Regions.Has(int(p / per)) {
			e.loadCursor = p + 1
			return p, true
		}
	}
	return 0, false
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
	// From the first allocation on, region grants to the loading
	// enclave are refused, so its pages come from one fixed set.
	e.pagesFrozen = true

	key := ptKey{level: level, prefix: vaPrefix(va, level)}
	at, dup := e.tableIndex(key)
	if dup {
		return fail(api.ErrInvalidValue)
	}

	// The parent table must already exist (top-down construction).
	var parentPPN uint64
	if level == pt.Levels-1 {
		if e.RootPPN != 0 {
			return fail(api.ErrInvalidValue) // root already allocated
		}
	} else {
		parent, found := e.table(level+1, vaPrefix(va, level+1))
		if !found {
			return fail(api.ErrInvalidState)
		}
		parentPPN = parent
	}

	ppn, found := mon.nextPageLocked(e)
	if !found {
		return fail(api.ErrNoResources)
	}
	mon.machine.Mem.ZeroPage(ppn << mem.PageBits)
	e.ptPages = slices.Insert(e.ptPages, at, ptPage{key, ppn})
	if level == pt.Levels-1 {
		e.RootPPN, e.mapped = ppn, make(map[uint64]bool)
	} else {
		pteAddr := parentPPN<<mem.PageBits + pt.VPN(va, level+1)*pt.EntrySize
		mon.machine.Mem.Store(pteAddr, 8, pt.MakePTE(ppn, pt.V))
	}
	// Measure the table's normalized VA prefix, not raw caller bits.
	e.measurement().ExtendPageTable(vaPrefix(va, level)<<(mem.PageBits+9*uint(level+1)), level)
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
	leaf, found := e.table(0, vaPrefix(va, 0))
	if !found {
		return fail(api.ErrInvalidState) // leaf table missing
	}
	ppn, found := mon.nextPageLocked(e)
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
	e.measurement().ExtendPage(va, perms, content[:])
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
	e.measurement().ExtendShared(va)
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
	e.Measurement = e.measurement().Finalize()
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
// re-allocation; pending grants and threads revert to the OS.
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
// snapshot it clones (if any), and exactly its own threads and its
// owned and pending regions — with TryLock before mutating anything,
// so under contention it fails with ErrRetry having changed no state
// (§V-A), and a lock held on some other object never fails it.
func (mon *Monitor) deleteEnclave(req api.Request, _ *callContext) api.Response {
	eid := req.Args[0]
	e, st := lookup[*Enclave](mon, LockEnclave, eid)
	if st != api.OK {
		return fail(st)
	}
	defer e.mu.Unlock()
	if e.running > 0 || (e.snap != nil && e.CloneOf == 0) { // live snapshot: release it first
		return fail(api.ErrInvalidState)
	}
	// A live ring or grant endpoint blocks deletion, like a live
	// snapshot: a freed eid could otherwise be recreated and inherit the
	// dead enclave's rings — including undelivered messages meant for
	// the previous tenant — and a revoke relies on its endpoints
	// existing. The OS destroys and revokes them first. lockEndpoints
	// links only while holding the endpoint enclave's lock (held here
	// for the whole transaction), so no link can appear after the check.
	mon.objMu.RLock()
	linked := len(e.links) > 0
	mon.objMu.RUnlock()
	if linked {
		return fail(api.ErrInvalidState)
	}
	if e.CloneOf != 0 {
		if !mon.tryLock(&e.snap.mu, LockSnapshot, e.CloneOf) {
			return fail(api.ErrRetry)
		}
		defer e.snap.mu.Unlock()
	}
	// Holding e.mu excludes new offers and grants, so e.Threads and
	// e.Regions|e.Pending are exactly the threads and regions the delete
	// touches.
	regions := e.Regions | e.Pending
	unlockAll := func(threads, below int) {
		for _, th := range e.Threads[:threads] {
			th.mu.Unlock()
		}
		for r := 0; r < below; r++ {
			if regions.Has(r) {
				mon.regions[r].mu.Unlock()
			}
		}
	}
	for i, th := range e.Threads {
		if !mon.tryLock(&th.mu, LockThread, th.ID) {
			unlockAll(i, 0)
			return fail(api.ErrRetry)
		}
	}
	for r := range mon.regions {
		if regions.Has(r) && !mon.tryLock(&mon.regions[r].mu, LockRegion, uint64(r)) {
			unlockAll(len(e.Threads), r)
			return fail(api.ErrRetry)
		}
	}
	// All locks held; mutate. Owned regions hold enclave secrets until
	// cleaned: ownership reverts to the OS pool at block time (a blocked
	// region must never name a dead enclave), and the secrets stay
	// sealed until clean_region scrubs the region. Pending grants revert
	// to the OS.
	for r := range mon.regions {
		switch {
		case e.Regions.Has(r):
			mon.regions[r].state, mon.regions[r].owner = RegionBlocked, api.DomainOS
		case e.Pending.Has(r):
			mon.regions[r].state, mon.regions[r].owner = RegionOwned, api.DomainOS
			mon.osBitmap.Or(1 << uint(r))
		}
	}

	// A clone's alias references die with it: one per private page
	// still aliased copy-on-write or read-only, and the snapshot's clone
	// count. The frozen pages themselves live in the template's regions
	// and are untouched; the dead clone keeps no alias state.
	if e.CloneOf != 0 {
		for i, pg := range e.snap.table {
			if e.InEvrange(pg.va) && (pg.perms&pt.W == 0 || e.aliasesCOW(i)) {
				mon.machine.Mem.ReleaseRef(pg.ppn << mem.PageBits)
			}
		}
		e.snap.clones--
		e.snap, e.cow = nil, nil
	}
	for _, th := range e.Threads {
		th.State, th.Owner = ThreadAvailable, 0
		th.clearContext()
	}
	mon.objMu.Lock()
	mon.unregister(eid)
	mon.objMu.Unlock()
	unlockAll(len(e.Threads), len(mon.regions))
	mon.refreshViews()
	// The lifecycle state follows the dead flag, so a transaction that
	// fetched e before the delete and locks it without the lookup (a
	// region grant) refuses a dead enclave.
	e.State = EnclaveDead
	return ok()
}
