package sm

// Enclave snapshot & copy-on-write clone (DESIGN.md §8). A snapshot
// freezes an initialized enclave — the template — read-only and
// records its measured layout: page-table shape, data pages, shared
// windows, thread entry specs, measurement. A clone is a fresh enclave
// whose page tables the monitor builds in the clone's own memory in
// O(page-table pages), with every data-page PTE aliasing the
// snapshot's physical page; writable pages alias with the W bit
// cleared and are copied into the clone's own memory on the first
// write fault (copy-then-retry). The clone's identity inherits the
// template measurement — the fork provably starts from the measured
// initial state — while its enclave ID stays per-clone, and
// FieldEnclaveIdentity exposes the distinction to attestation
// evidence.
//
// Page ownership is refcounted on physical memory (mem.Retain /
// ReleaseRef): the snapshot holds one reference per frozen page and
// each clone one per page it still aliases, so the delete/release
// order is enforced structurally — a template with a live snapshot
// cannot be deleted, a snapshot with live clones cannot be released,
// and a region holding referenced pages cannot be cleaned.
//
// The snapshot owns the one record of the template's mapped pages: an
// immutable table sorted by VA. The template and each clone keep only
// a bitmap over it of the entries they still alias copy-on-write, so a
// fork allocates the same few objects for any template size.

import (
	"cmp"
	"slices"
	"sort"

	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
	"sanctorum/internal/sm/api"
)

// Snapshot is the monitor's metadata for one frozen template, named
// like every monitor object by its metadata page.
type Snapshot struct {
	objHeader

	ID         uint64
	TemplateID uint64
	Meas       [32]byte
	EvBase     uint64
	EvMask     uint64
	// Regions are the template's regions holding the frozen pages;
	// clones borrow them into their access view.
	Regions dram.Bitmap

	tables []ptKey // the template's page-table pages, in canonical order
	// table is every mapped page of the template, private and shared,
	// ascending by VA; written once by snapshot_enclave and never
	// changed after. shared counts its entries outside the evrange
	// (untrusted windows).
	table   []snapPage
	shared  int
	threads []threadTemplate

	clones int
}

// snapPage is one mapped page of the template: its virtual page,
// physical page number, and original leaf-PTE flag bits (W included
// even when the live PTEs carry it cleared). A private page is frozen;
// a shared window maps an OS page and is never frozen.
type snapPage struct {
	va    uint64
	ppn   uint64
	perms uint64
}

// threadTemplate is one measured thread's entry spec.
type threadTemplate struct {
	entryPC uint64
	entrySP uint64
}

// snapshotEnclave implements CallSnapshotEnclave: freeze the template
// a0 and register the snapshot a1. The template must be initialized,
// parked (no running threads), and neither already snapshotted nor
// itself a clone (chained forks would layer alias graphs; the OS can
// instead build a new template from the clone's spec).
func (mon *Monitor) snapshotEnclave(req api.Request, _ *callContext) api.Response {
	eid, snapID := req.Args[0], req.Args[1]
	e, st := lookup[*Enclave](mon, LockEnclave, eid)
	if st != api.OK {
		return fail(st)
	}
	defer e.mu.Unlock()
	if e.State != EnclaveInitialized || e.running > 0 || e.snap != nil || e.CloneOf != 0 {
		return fail(api.ErrInvalidState)
	}

	// Collect thread entry specs first — the only step that can still
	// fail with ErrRetry — so a contended transaction changes nothing.
	// Clones number their threads in the template's thread-id order.
	var threads []threadTemplate
	for _, t := range slices.SortedFunc(slices.Values(e.Threads), func(a, b *Thread) int { return cmp.Compare(a.ID, b.ID) }) {
		if !mon.tryLock(&t.mu, LockThread, t.ID) {
			return fail(api.ErrRetry)
		}
		if t.State == ThreadAssigned {
			threads = append(threads, threadTemplate{entryPC: t.EntryPC, entrySP: t.EntrySP})
		}
		t.mu.Unlock()
	}

	// Register the snapshot, locked until it is frozen (a racing lookup
	// fails with ErrRetry); this is the commit point — everything after
	// is infallible reads of the enclave's own tables plus the freeze
	// itself.
	snap := &Snapshot{
		ID:         snapID,
		TemplateID: eid,
		Meas:       e.Measurement,
		EvBase:     e.EvBase,
		EvMask:     e.EvMask,
		Regions:    e.Regions,
		threads:    threads,
		tables:     canonicalTables(e),
	}
	snap.mu.Lock()
	mon.objMu.Lock()
	registered := mon.register(snapID, snap)
	mon.objMu.Unlock()
	if !registered {
		snap.mu.Unlock()
		return fail(api.ErrInvalidValue)
	}

	vas := sortedMappedVAs(e)
	snap.table = make([]snapPage, 0, len(vas))
	e.cow = make([]uint64, (len(vas)+63)/64)
	for _, va := range vas {
		pteAddr, ok := mon.leafPTEAddr(e, va)
		if !ok {
			continue // unreachable: every mapped VA has its leaf table
		}
		pte, err := mon.machine.Mem.Load(pteAddr, 8)
		if err != nil || pte&pt.V == 0 {
			continue
		}
		i := len(snap.table)
		snap.table = append(snap.table, snapPage{va: va, ppn: pt.PPNOf(pte), perms: pte & 0xFF})
		if !e.InEvrange(va) {
			snap.shared++
			continue
		}
		pa := pt.PPNOf(pte) << mem.PageBits
		mon.machine.Mem.Retain(pa)
		mon.machine.Mem.MarkCOW(pa)
		if pte&pt.W != 0 {
			// Freeze: the template itself now faults on writes and
			// copies like any clone would — the frozen page is the
			// snapshot's, not the template's, from here on.
			mon.machine.Mem.Store(pteAddr, 8, pte&^pt.W)
			e.cow[i>>6] |= 1 << (i & 63)
		}
	}

	e.snap = snap
	// Mirror the measurement into the snapshot's metadata page, as the
	// enclave lifecycle does for its own.
	mon.machine.Mem.WriteBytes(snapID+8, snap.Meas[:])
	snap.mu.Unlock()

	// The template last ran before this transaction (running == 0, and
	// every exit cleans the core), so no writable translations linger;
	// the region shootdown is the §VII-A page-walk-invariant hygiene
	// for the permission downgrade, one round of every core. Waiting
	// for it under e.mu is safe: no hart runs the template, so none can
	// block on its lock.
	mon.shootdown(snap.Regions)
	return ok()
}

// shootdown drops every core's TLB translations into the regions of
// set, returning once every core has acknowledged. OS (no-hart)
// context only.
func (mon *Monitor) shootdown(set dram.Bitmap) {
	mon.machine.Broadcast(machine.NoHart, true, flushRegions, uint64(set), uint64(mon.machine.DRAM.RegionShift), 0)
}

// canonicalTables lists an enclave's page-table pages in the canonical
// build order its list keeps: root first, then each level top-down by
// ascending normalized prefix — the order cloneEnclave replays so
// parents always exist before children.
func canonicalTables(e *Enclave) []ptKey {
	out := make([]ptKey, len(e.ptPages))
	for i, t := range e.ptPages {
		out[i] = t.ptKey
	}
	return out
}

// sortedMappedVAs returns the enclave's mapped virtual pages ascending,
// so snapshot construction is deterministic.
func sortedMappedVAs(e *Enclave) []uint64 {
	vas := make([]uint64, 0, len(e.mapped))
	for va := range e.mapped {
		vas = append(vas, va)
	}
	sort.Slice(vas, func(i, j int) bool { return vas[i] < vas[j] })
	return vas
}

// leafPTEAddr returns the physical address of the leaf PTE mapping va
// in the enclave's own tables.
func (mon *Monitor) leafPTEAddr(e *Enclave, va uint64) (uint64, bool) {
	leaf, ok := e.table(0, vaPrefix(va, 0))
	if !ok {
		return 0, false
	}
	return leaf<<mem.PageBits + pt.VPN(va, 0)*pt.EntrySize, true
}

// cloneEnclave implements CallCloneEnclave: fork a sealed worker from a
// snapshot. eid names a Loading enclave the OS created with the
// template's evrange and granted regions but no pages — the clone's
// own memory holds its page tables and future COW copies. The build is
// O(snapshot tables + mapped pages): no page contents are copied and
// nothing is hashed; the measurement identity is inherited.
func (mon *Monitor) cloneEnclave(req api.Request, _ *callContext) api.Response {
	eid, snapID, tidBase, sharedPA := req.Args[0], req.Args[1], req.Args[2], req.Args[3]
	e, st := lookup[*Enclave](mon, LockEnclave, eid)
	if st != api.OK {
		return fail(st)
	}
	defer e.mu.Unlock()
	if e.State != EnclaveLoading {
		return fail(api.ErrInvalidState)
	}
	if e.pagesFrozen || e.RootPPN != 0 || len(e.mapped) != 0 || len(e.ptPages) != 0 {
		return fail(api.ErrInvalidState) // clone only into an untouched enclave
	}

	snap, st := lookup[*Snapshot](mon, LockSnapshot, snapID)
	if st != api.OK {
		return fail(st)
	}
	defer snap.mu.Unlock()

	if e.EvBase != snap.EvBase || e.EvMask != snap.EvMask {
		return fail(api.ErrInvalidValue) // the inherited measurement covers the evrange
	}
	if sharedPA != 0 {
		if snap.shared != 1 || sharedPA&mem.PageMask != 0 ||
			!mon.osOwnsRange(sharedPA, mem.PageSize) {
			return fail(api.ErrInvalidValue)
		}
	}
	// Capacity: the clone's own regions must hold every table page.
	capacity := uint64(e.Regions.Count()) * mon.machine.DRAM.PagesPerRegion()
	if uint64(len(snap.tables)) > capacity {
		return fail(api.ErrNoResources)
	}

	// Validate every clone thread id before committing any.
	n := len(snap.threads)
	if n > 0 && (tidBase == 0 || tidBase&mem.PageMask != 0) {
		return fail(api.ErrInvalidValue)
	}
	mon.objMu.Lock()
	for i := 0; i < n; i++ {
		if !mon.metaPageFree(tidBase + uint64(i)*mem.PageSize) {
			mon.objMu.Unlock()
			return fail(api.ErrInvalidValue)
		}
	}
	for i, spec := range snap.threads {
		tid := tidBase + uint64(i)*mem.PageSize
		t := &Thread{ID: tid, State: ThreadAssigned, Owner: eid,
			EntryPC: spec.entryPC, EntrySP: spec.entrySP}
		mon.register(tid, t) // cannot fail: validated above under objMu
		e.Threads = append(e.Threads, t)
	}
	mon.objMu.Unlock()

	// Replay the template's page-table shape into the clone's own
	// memory — the O(page-table pages) part of the fork. The list stays
	// canonical by appending in the snapshot's order.
	e.pagesFrozen = true
	e.ptPages = make([]ptPage, 0, len(snap.tables))
	for _, k := range snap.tables {
		ppn, okPage := mon.nextPageLocked(e)
		if !okPage {
			// Unreachable: capacity was checked against the owned
			// regions above.
			return fail(api.ErrNoResources)
		}
		mon.machine.Mem.ZeroPage(ppn << mem.PageBits)
		e.ptPages = append(e.ptPages, ptPage{k, ppn})
		if k.level == pt.Levels-1 {
			e.RootPPN = ppn
			continue
		}
		parent, _ := e.table(k.level+1, k.prefix>>9)
		va := k.prefix << (mem.PageBits + 9*uint(k.level+1))
		pteAddr := parent<<mem.PageBits + pt.VPN(va, k.level+1)*pt.EntrySize
		mon.machine.Mem.Store(pteAddr, 8, pt.MakePTE(ppn, pt.V))
	}

	// One PTE per table entry: every private page aliases the frozen
	// page — read-only pages with their original permissions, writable
	// ones with W cleared and their cow bit set — and the shared window
	// maps the template's OS page or the per-clone override.
	e.cow = make([]uint64, (len(snap.table)+63)/64)
	for i, pg := range snap.table {
		pteAddr, found := mon.leafPTEAddr(e, pg.va)
		if !found {
			return fail(api.ErrInvalidState) // unreachable: tables replayed above
		}
		ppn, perms := pg.ppn, pg.perms
		if !e.InEvrange(pg.va) {
			if sharedPA != 0 {
				ppn = sharedPA >> mem.PageBits
			}
		} else {
			if perms&pt.W != 0 {
				e.cow[i>>6] |= 1 << (i & 63)
				perms &^= pt.W
			}
			mon.machine.Mem.Retain(pg.ppn << mem.PageBits)
		}
		mon.machine.Mem.Store(pteAddr, 8, pt.MakePTE(ppn, perms))
	}

	// Seal with the inherited identity: the clone's initial state is
	// exactly the template's measured initial state, so the template
	// measurement is its measurement; the enclave ID stays per-clone
	// (FieldEnclaveIdentity reports origin=1 for evidence).
	e.State = EnclaveInitialized
	e.Measurement = snap.Meas
	e.CloneOf = snapID
	e.snap = snap
	e.Borrowed = snap.Regions
	e.publishAccess()
	snap.clones++
	mon.machine.Mem.Store(eid, 8, uint64(e.State))
	mon.machine.Mem.WriteBytes(eid+8, e.Measurement[:])
	return ok()
}

// releaseSnapshot implements CallReleaseSnapshot: dissolve the
// snapshot a0, which must have no outstanding clones. The template
// thaws — every page still aliased copy-on-write gets its W bit back —
// and the snapshot's page references drop, returning the refcounts to
// baseline.
func (mon *Monitor) releaseSnapshot(req api.Request, _ *callContext) api.Response {
	snapID := req.Args[0]
	snap, st := lookup[*Snapshot](mon, LockSnapshot, snapID)
	if st != api.OK {
		return fail(st)
	}
	defer snap.mu.Unlock()
	if snap.clones > 0 {
		return fail(api.ErrInvalidState)
	}
	e, st := lookup[*Enclave](mon, LockEnclave, snap.TemplateID)
	if st != api.OK {
		return fail(st) // ErrRetry under contention; the template cannot be gone
	}
	defer e.mu.Unlock()
	if e.running > 0 {
		return fail(api.ErrInvalidState) // park the template before thawing it
	}

	for i, pg := range snap.table {
		if !e.InEvrange(pg.va) {
			continue // a shared window was never frozen
		}
		pa := pg.ppn << mem.PageBits
		mon.machine.Mem.ClearCOW(pa)
		if e.aliasesCOW(i) {
			// Still aliased by the template: restore the original PTE.
			// Pages the template already copied point elsewhere; the
			// orphaned frozen page stays in the template's region until
			// that region is cleaned.
			if pteAddr, ok := mon.leafPTEAddr(e, pg.va); ok {
				mon.machine.Mem.Store(pteAddr, 8, pt.MakePTE(pg.ppn, pg.perms))
			}
		}
		mon.machine.Mem.ReleaseRef(pa)
	}
	e.snap, e.cow = nil, nil
	mon.objMu.Lock()
	mon.unregister(snapID)
	mon.objMu.Unlock()

	mon.shootdown(snap.Regions)
	return ok()
}

// aliasesCOW reports whether the enclave still aliases entry i of its
// snapshot table copy-on-write.
func (e *Enclave) aliasesCOW(i int) bool { return e.cow[i>>6]&(1<<(i&63)) != 0 }

// cowEntry finds vaPage in the enclave's snapshot table and reports
// whether the enclave still aliases it copy-on-write.
func (e *Enclave) cowEntry(vaPage uint64) (int, bool) {
	if e.snap == nil {
		return 0, false
	}
	t := e.snap.table
	i := sort.Search(len(t), func(i int) bool { return t[i].va >= vaPage })
	return i, i < len(t) && t[i].va == vaPage && e.aliasesCOW(i)
}

// resolveCOWLocked performs the copy half of the copy-then-retry
// protocol for one page the enclave still aliases copy-on-write: take
// the next free physical page from the regions the enclave owns, copy
// the frozen contents, and repoint the leaf PTE with write permission
// restored. The caller holds e's transaction lock and is
// responsible for translation shootdowns. Only clones drop an alias
// reference — a template resolving its own COW fault never Retained:
// the single snapshot-held reference must survive (clones may still be
// forked from, or alias, the frozen page) and is dropped exactly once
// at release_snapshot.
func (mon *Monitor) resolveCOWLocked(e *Enclave, vaPage uint64) bool {
	i, isCOW := e.cowEntry(vaPage)
	if !isCOW {
		return false
	}
	pg := e.snap.table[i]
	ppn, okPage := mon.nextPageLocked(e)
	if !okPage {
		return false // no pages left for the copy: surface the fault
	}
	if mon.machine.Mem.CopyPage(ppn<<mem.PageBits, pg.ppn<<mem.PageBits) != nil {
		return false
	}
	pteAddr, ok := mon.leafPTEAddr(e, vaPage)
	if !ok {
		return false
	}
	mon.machine.Mem.Store(pteAddr, 8, pt.MakePTE(ppn, pg.perms))
	e.cow[i>>6] &^= 1 << (i & 63)
	if e.CloneOf != 0 {
		mon.machine.Mem.ReleaseRef(pg.ppn << mem.PageBits)
	}
	return true
}

// resolveCOWForWrite lets the monitor's own copy-in paths
// (writeEnclave: get_mail, get_field, attestation and key-agreement
// outputs) trigger the same copy-on-write resolution a guest store
// would, so a clone behaves exactly like its directly built template.
// Contention on the enclave's transaction lock fails the resolution
// (the caller's call reports a retryable failure). Every hart gets a
// targeted shootdown through its IPI mailbox, unwaited — including the
// current one, whose mailbox drains at the instruction boundary right
// after the trap returns; the monitor's own writes go through physical
// memory and never consult a TLB.
func (mon *Monitor) resolveCOWForWrite(e *Enclave, va uint64) bool {
	vaPage := va &^ uint64(mem.PageMask)
	if !mon.tryLock(&e.mu, LockEnclave, e.ID) {
		return false
	}
	resolved := mon.resolveCOWLocked(e, vaPage)
	e.mu.Unlock()
	if resolved {
		mon.machine.Broadcast(machine.NoHart, false, flushPages, vaPage, 1, 0)
	}
	return resolved
}

// cowFault resolves a store page fault on a copy-on-write alias: copy
// the frozen page into the faulting enclave's own memory, repoint the
// leaf PTE with write permission restored, shoot the stale translation
// down, and retry the store (the PC is not advanced). Returns handled
// = false for anything that is not a resolvable COW fault — the caller
// falls through to the ordinary enclave fault path, and contended
// transactions resolve through the OS re-entering the thread.
func (mon *Monitor) cowFault(c *machine.Core, slot slotView, tr *isa.Trap) (machine.Disposition, bool) {
	e, found := get[*Enclave](mon, slot.owner)
	if !found {
		return 0, false
	}
	vaPage := tr.Value &^ uint64(mem.PageMask)
	if !mon.tryLock(&e.mu, LockEnclave, slot.owner) {
		return 0, false // contended: AEX; the OS re-enters and the store retries
	}
	defer e.mu.Unlock()

	vpn := (vaPage & pt.VAMask) >> mem.PageBits
	if _, isCOW := e.cowEntry(vaPage); !isCOW {
		// Spurious fault: another hart may have resolved this page
		// between our fault and the lock. If the translation is now
		// writable, only the local TLB entry was stale — drop it and
		// retry; otherwise it is a genuine fault.
		if _, ok := mon.enclaveVAtoPA(e, tr.Value, pt.Store); ok {
			c.TLB.FlushPage(vpn)
			return machine.DispResume, true
		}
		return 0, false
	}
	if !mon.resolveCOWLocked(e, vaPage) {
		return 0, false
	}

	// The faulting hart drops its own stale translation inline (it owns
	// its core inside the trap); other harts get a targeted shootdown
	// through their IPI mailboxes, unwaited — a hart that races ahead
	// on a stale read-only entry refaults into the spurious path above.
	// Waiting is not an option here: two harts in simultaneous COW
	// faults would wait on each other's instruction boundaries.
	mon.machine.Broadcast(c.ID, false, flushPages, vaPage, 1, 0)
	return machine.DispResume, true
}

// flushPages is the request a page-table change sends the cores: it
// drops core c's translations of the n virtual pages from va.
func flushPages(c *machine.Core, va, n, _ uint64) {
	for i := uint64(0); i < n; i++ {
		c.TLB.FlushPage((va + i*mem.PageSize) & pt.VAMask >> mem.PageBits)
	}
}
