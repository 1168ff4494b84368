package sm

// Bulk grants (DESIGN.md §14): the zero-copy data plane. A grant pins
// a span of OS-owned pages as an untrusted shared buffer between a
// fixed producer/consumer pair — the region-ownership machinery of §IV
// narrowed to page granularity, with the physical page refcounts as
// ground truth: a granted page carries an alias reference, so
// clean_region refuses to scrub it for as long as the grant lives.
// Ring messages then carry scatter-gather descriptors — (offset,
// length) lists validated against the grant bounds at send time — so
// multi-KB payloads move through the buffer with zero monitor copies
// on the data path; the monitor only ever copies the 64-byte
// descriptor message itself.
//
// Lifecycle (the state machine of DESIGN.md §14): bulk_grant registers
// the buffer and pins its pages; each endpoint enclave accepts with
// bulk_map, which writes the PTEs into its own tables (outside the
// evrange, like a Keystone shared window — the OS maps its side in its
// own untrusted page tables, no monitor call needed); bulk_revoke
// unmaps every endpoint with targeted shootdowns, drops the pins, and
// frees the id — refused with ErrInvalidState while any descriptor
// into the grant is still queued in a ring, because in-flight data
// keeps the buffer alive.
//
// Concurrency: the grant's header lock is its §V-A transaction lock,
// taken with TryLock by map and revoke. The send/recv hot paths never
// take it — they use the header's dead flag and the inflight count,
// ordered so the two cannot both win: send publishes inflight before
// checking dead, revoke publishes dead before checking inflight (both
// sequentially consistent), so either the send sees the revoke and
// aborts, or the revoke sees the send's descriptors and refuses. This
// keeps grant locks out of the ring lock order entirely: a
// ring-transaction holder never waits on a grant.

import (
	"encoding/binary"
	"sync/atomic"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/sm/api"
)

// Grant is the monitor's metadata for one bulk buffer grant, named —
// like every monitor object — by a free SM metadata page.
type Grant struct {
	objHeader
	endpoints

	BasePA uint64
	Pages  uint64

	// maps records where each enclave endpoint bulk_mapped the buffer
	// (eid → va), guarded by mu. The OS side never appears here: the
	// buffer is OS-owned memory the OS reaches through its own tables.
	maps map[uint64]uint64

	// inflight and the header's dead flag are the revoke/send race
	// protocol (see the comment above): send never takes the lock, so
	// a ring-lock holder never waits on a grant transaction.
	inflight atomic.Int64 // descriptors queued in rings
}

// bytes returns the grant's size in bytes.
func (g *Grant) bytes() uint64 { return g.Pages * mem.PageSize }

// bulkGrant implements CallBulkGrant (OS-domain): register grant a0
// over [a1, a1+a2·4096) in OS-owned memory between a fixed producer a3
// and consumer a4, pinning every page with an alias reference. The base
// must be page-aligned and the span must not wrap. Endpoints register
// exactly as a ring's do (lockEndpoints), so a grant can never attach
// to an enclave mid-deletion and survive it.
func (mon *Monitor) bulkGrant(req api.Request, _ *callContext) api.Response {
	basePA, pages := req.Args[1], req.Args[2]
	size := pages * mem.PageSize
	if pages == 0 || pages > api.BulkMaxPages || basePA&mem.PageMask != 0 || basePA+size < basePA ||
		!mon.osOwnsRange(basePA, size) {
		return fail(api.ErrInvalidValue)
	}
	return mon.lockEndpoints(req.Args[0], req.Args[3], req.Args[4], func(p endpoints) link {
		for pg := uint64(0); pg < pages; pg++ {
			mon.machine.Mem.Retain(basePA + pg*mem.PageSize)
		}
		return &Grant{endpoints: p, BasePA: basePA, Pages: pages, maps: make(map[uint64]uint64)}
	})
}

// bulkMap implements CallBulkMap (enclave trap context only): the
// accept half of the grant handshake. The calling enclave maps the
// grant's pages read-write into its own tables at va — page-aligned,
// outside the evrange, with the covering leaf tables already allocated
// (a template built with a shared window at the same 2 MiB leaf
// satisfies this, and its clones inherit the tables). Every page is
// validated before the first PTE is written, so a failed map changes
// nothing. Lock order: grant → enclave, same side as bulkRevoke.
//
// The mapping is deliberately not recorded in e.mapped: it is
// post-measurement untrusted window state, not enclave image — a
// snapshot of the enclave must not capture it and a clone must not
// inherit it (each clone bulk_maps its own grant). The
// PTE-must-be-invalid check excludes double-mapping, and overlap with a
// measured shared window too: every such window has a valid PTE.
func (mon *Monitor) bulkMap(req api.Request, ctx *callContext) api.Response {
	g, st := lookup[*Grant](mon, LockGrant, req.Args[0])
	if st != api.OK {
		return fail(st)
	}
	defer g.mu.Unlock()
	e := ctx.enclave
	if !g.isEndpoint(e.ID) {
		return fail(api.ErrUnauthorized)
	}
	if _, already := g.maps[e.ID]; already {
		return fail(api.ErrInvalidState)
	}
	va := req.Args[1]
	if va&mem.PageMask != 0 || va+g.bytes() < va {
		return fail(api.ErrInvalidValue)
	}
	if !mon.tryLock(&e.mu, LockEnclave, e.ID) {
		return fail(api.ErrRetry)
	}
	defer e.mu.Unlock()
	pteAddrs := make([]uint64, g.Pages)
	for p := uint64(0); p < g.Pages; p++ {
		pva := va + p*mem.PageSize
		if e.InEvrange(pva) {
			return fail(api.ErrInvalidValue)
		}
		pteAddr, okLeaf := mon.leafPTEAddr(e, pva)
		if !okLeaf {
			return fail(api.ErrInvalidState) // leaf table missing
		}
		if pte, err := mon.machine.Mem.Load(pteAddr, 8); err != nil || pte&pt.V != 0 {
			return fail(api.ErrInvalidValue) // VA already translates
		}
		pteAddrs[p] = pteAddr
	}
	for p := uint64(0); p < g.Pages; p++ {
		ppn := g.BasePA>>mem.PageBits + p
		mon.machine.Mem.Store(pteAddrs[p], 8, pt.MakePTE(ppn, pt.R|pt.W|pt.V|pt.U))
	}
	g.maps[e.ID] = va
	return ok()
}

// bulkRevoke implements CallBulkRevoke (OS, no-hart context only):
// unmap grant a0 from every endpoint that mapped it, drop the page
// pins, free the id, and shoot down the mapped translations on every
// core. Refused with ErrInvalidState while descriptors into the grant
// are queued in a ring — the dead/inflight protocol guarantees a
// concurrent bulk_send either lands before the refusal or aborts.
//
// Endpoint enclaves are locked in the fixed producer-then-consumer
// order (never Go map order — replay determinism), and every lock is
// taken before the first mutation so contention fails with ErrRetry
// having changed nothing. The shootdown — one waited round of every
// core per mapping — runs after all locks are released: it waits for
// instruction boundaries, and a hart blocked in stopThread's lock
// acquisition never reaches one, so waiting on acknowledgments while
// holding enclave locks could deadlock. The window is benign — the
// grant is already unregistered, and a stale translation reaches only
// OS-owned memory the enclave could touch moments earlier; by return,
// every core has acknowledged the flush.
func (mon *Monitor) bulkRevoke(req api.Request, _ *callContext) api.Response {
	grantID := req.Args[0]
	g, st := lookup[*Grant](mon, LockGrant, grantID)
	if st != api.OK {
		return fail(st)
	}
	type mapping struct {
		e  *Enclave
		va uint64
	}
	var mappings []mapping
	unwind := func() {
		for _, m := range mappings {
			m.e.mu.Unlock()
		}
		g.mu.Unlock()
	}
	for _, who := range g.distinct() {
		va, isMapped := g.maps[who]
		if !isMapped {
			continue
		}
		// The endpoint must still exist: deleteEnclave refuses while the
		// enclave is a grant endpoint.
		e, st := lookup[*Enclave](mon, LockEnclave, who)
		if st != api.OK {
			unwind()
			return fail(st)
		}
		mappings = append(mappings, mapping{e: e, va: va})
	}
	g.dead.Store(true)
	if g.inflight.Load() != 0 {
		g.dead.Store(false) // rollback: queued descriptors keep it alive
		unwind()
		return fail(api.ErrInvalidState)
	}
	for _, m := range mappings {
		for p := uint64(0); p < g.Pages; p++ {
			pteAddr, okLeaf := mon.leafPTEAddr(m.e, m.va+p*mem.PageSize)
			if okLeaf { // always true: bulk_map verified the leaf
				mon.machine.Mem.Store(pteAddr, 8, 0)
			}
		}
		delete(g.maps, m.e.ID)
	}
	for p := uint64(0); p < g.Pages; p++ {
		mon.machine.Mem.ReleaseRef(g.BasePA + p*mem.PageSize)
	}
	mon.objMu.Lock()
	mon.unlink(g)
	mon.objMu.Unlock()
	unwind()
	for _, m := range mappings {
		mon.machine.Broadcast(machine.NoHart, true, flushPages, m.va, g.Pages, 0)
	}
	return ok()
}

// bulkDesc is one parsed scatter-gather descriptor.
type bulkDesc struct{ off, ln uint64 }

// parseBulkDescs validates one 64-byte descriptor message against a
// grant's byte size: the BulkTag anchor, a descriptor count in
// 1..BulkMaxDescs, and per descriptor length > 0, no offset+length
// wraparound, offset+length within the grant, and no pairwise overlap
// inside the message. Trailing payload bytes beyond the last
// descriptor are application-defined (a bulk server reads its opcode
// there) and not the monitor's concern.
func parseBulkDescs(payload []byte, grantBytes uint64) api.Error {
	if len(payload) < api.RingMsgSize {
		return api.ErrInvalidValue
	}
	if binary.LittleEndian.Uint64(payload) != api.BulkTag {
		return api.ErrInvalidValue
	}
	nd := binary.LittleEndian.Uint64(payload[8:])
	if nd == 0 || nd > api.BulkMaxDescs {
		return api.ErrInvalidValue
	}
	var descs [api.BulkMaxDescs]bulkDesc
	for i := 0; i < int(nd); i++ {
		off := binary.LittleEndian.Uint64(payload[16+16*i:])
		ln := binary.LittleEndian.Uint64(payload[24+16*i:])
		if ln == 0 {
			return api.ErrInvalidValue
		}
		if off+ln < off {
			return api.ErrInvalidValue // wraparound
		}
		if off+ln > grantBytes {
			return api.ErrInvalidValue // out of bounds
		}
		for j := 0; j < i; j++ {
			if off < descs[j].off+descs[j].ln && descs[j].off < off+ln {
				return api.ErrInvalidValue // overlap
			}
		}
		descs[i] = bulkDesc{off: off, ln: ln}
	}
	return api.OK
}
