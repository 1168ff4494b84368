package sm

// Mailbox rings (DESIGN.md §9): the streaming counterpart of the
// single-slot mailboxes of §VI-B. A ring is a fixed-capacity FIFO of
// fixed-size messages living in monitor-tracked memory, named by an SM
// metadata page (unforgeable, like every other monitor object), with
// one producer and one consumer protection domain fixed at creation.
// Send and recv move up to api.RingMaxBatch messages per monitor call,
// so the per-call overhead (trap or Dispatch, authorization, ring
// transaction) amortizes across a batch; every message is stamped with
// the monitor-attested sender identity and measurement, preserving the
// mailbox system's attestation-grade provenance at streaming rates.
//
// The park/wake protocol is what removes OS polling from the serving
// path: an enclave consumer that finds its ring empty parks
// (CallRingPark) — the monitor registers it as the ring's waiter and
// performs an AEX-style exit with api.ParkedExitValue, saving a
// context whose resume re-executes the park ECALL — and the next send
// wakes it by posting a request through the PR 2 inter-processor
// mailboxes to the OS's registered wake sink. The sink is the
// simulation's analogue of the inter-processor interrupt a hardware
// monitor would raise at the kernel: a notification only, carrying no
// authority (the OS still schedules through enter_enclave, and the
// monitor still verifies).

import (
	"cmp"
	"encoding/binary"
	"slices"
	"sync"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/sm/api"
)

// endpoints is what rings and grants share: the object's id, its fixed
// producer and consumer domains (api.DomainOS or an eid), and its
// creation order for the FieldEnclaveRings/FieldEnclaveGrants
// directories. Immutable after creation.
type endpoints struct {
	ID       uint64
	Producer uint64
	Consumer uint64
	seq      uint64
}

// isEndpoint reports whether who is the producer or the consumer.
func (p *endpoints) isEndpoint(who uint64) bool {
	return who == p.Producer || who == p.Consumer
}

// distinct returns the pair's endpoints, producer first, once each.
func (p *endpoints) distinct() []uint64 {
	if p.Consumer == p.Producer {
		return []uint64{p.Producer}
	}
	return []uint64{p.Producer, p.Consumer}
}

// Ring is the monitor's metadata for one mailbox ring. The mutex is
// the ring's §V-A transaction lock, taken with TryLock; contended
// calls fail with ErrRetry having changed nothing.
type Ring struct {
	mu sync.Mutex
	endpoints
	dead bool // set by destroy under mu; a racing lookup re-checks

	slots []ringMsg
	head  int // oldest undelivered message
	count int

	// Parked consumer thread (0 = none). Registered by ring_park on an
	// empty ring, popped by the next send, an explicit wake, or
	// destroy.
	waiterEID uint64
	waiterTID uint64

	// parkStamp is the telemetry cycle stamp taken when the waiter
	// parked (guarded by mu); the wake path reads it to record the
	// park→wake wait. Zero when telemetry is disabled.
	parkStamp uint64

	// records is the recv staging buffer of RingMaxBatch records,
	// reused across calls (guarded by mu like the slots), so recv
	// neither allocates nor zeroes a buffer per call.
	records []byte
}

// ringMsg is one queued message with its monitor-attested stamp. grant
// is zero for a plain message and the grant id for a scatter-gather
// descriptor message (bulk.go) — the two are never mixed on delivery:
// plain recv refuses a descriptor head, bulk recv drains only its own
// grant's run.
type ringMsg struct {
	sender  uint64
	meas    [32]byte
	grant   uint64
	payload [api.RingMsgSize]byte
}

// unlockAndWake releases r's transaction lock and wakes its parked
// consumer, if any, recording the park→wake wait; from is the posting
// hart. Reports whether a consumer was woken. Caller holds r.mu.
func (mon *Monitor) unlockAndWake(r *Ring, from int) bool {
	weid, wtid := r.waiterEID, r.waiterTID
	r.waiterEID, r.waiterTID = 0, 0
	stamp := r.parkStamp
	r.mu.Unlock()
	if wtid == 0 {
		return false
	}
	if t := mon.tele; t != nil {
		t.ringWakes.Inc(from)
		t.ringParkWait.ObserveOn(from, t.clock()-stamp)
	}
	mon.postWake(from, r.ID, weid, wtid)
	return true
}

// lookupRing fetches and transaction-locks a ring; contention fails
// the transaction with ErrRetry (§V-A). The dead re-check closes the
// lookup/destroy race: a hart that fetched the pointer before a
// concurrent destroy removed it must not operate on the orphaned
// object (messages would vanish, and a recreated ring under the same
// id would split into two objects).
func (mon *Monitor) lookupRing(id uint64) (*Ring, api.Error) {
	mon.objMu.RLock()
	r := mon.rings[id]
	mon.objMu.RUnlock()
	if r == nil {
		return nil, api.ErrInvalidValue
	}
	if !mon.tryLock(&r.mu, LockRing, id) {
		return nil, api.ErrRetry
	}
	if r.dead {
		r.mu.Unlock()
		return nil, api.ErrInvalidValue
	}
	return r, api.OK
}

// SetWakeSink registers the untrusted OS's wake notification handler.
// When a send (or explicit wake, or destroy) finds a parked consumer,
// the monitor posts a request through a core's IPI mailbox whose body
// invokes fn(ringID, eid, tid) — the simulation analogue of the
// inter-processor interrupt a hardware monitor raises to tell the
// kernel a thread became runnable. fn runs on whatever goroutine
// drains the mailbox (the posting one if the core is idle, the core's
// own at its next instruction boundary if it is running), so it must
// be quick and goroutine-safe, and must not call back into the
// monitor.
func (mon *Monitor) SetWakeSink(fn func(ringID, eid, tid uint64)) {
	mon.wakeSink.Store(fn)
}

// postWake routes one wake to the OS sink through core 0's IPI
// mailbox, waiting for the acknowledgment (RunOn) so a wake is never
// stranded in the mailbox of a core that just went idle — the wake is
// the only signal the OS has that a parked thread became runnable.
// from is the posting hart (machine.NoHart for host-side calls): a
// sender trapping on core 0 itself delivers inline, which is exactly
// its own instruction boundary. The wake stays advisory: a stale one
// costs the OS a failed enter_enclave, never monitor state.
func (mon *Monitor) postWake(from int, ringID, eid, tid uint64) {
	v := mon.wakeSink.Load()
	if v == nil {
		return
	}
	sink := v.(func(uint64, uint64, uint64))
	mon.machine.RunOn(0, from, func(*machine.Core) { sink(ringID, eid, tid) })
}

// lockEndpoints registers a new ring or grant: it claims id — a free
// page inside an SM metadata region, like every other monitor object
// id — and publishes the object through add, under objMu, while every
// enclave endpoint is held under its transaction lock. Paired with
// deleteEnclave's endpoint guard, this excludes the race where an
// object attaches to an enclave mid-deletion and survives it: either
// the create sees the enclave and the delete then refuses, or the
// delete wins and the create fails (retry or unknown id).
func (mon *Monitor) lockEndpoints(id, producer, consumer uint64, add func(p endpoints)) api.Error {
	p := endpoints{ID: id, Producer: producer, Consumer: consumer}
	for _, who := range p.distinct() {
		if who == api.DomainOS {
			continue
		}
		e, st := mon.lookupEnclave(who)
		if st != api.OK {
			return st
		}
		defer e.mu.Unlock()
	}
	mon.objMu.Lock()
	defer mon.objMu.Unlock()
	if st := mon.allocMetaPage(id); st != api.OK {
		return st
	}
	mon.pairSeq++
	p.seq = mon.pairSeq
	add(p)
	return api.OK
}

// directory serves FieldEnclaveRings and, with grants set,
// FieldEnclaveGrants: the rings (grants) eid is an endpoint of, in
// creation order, as id[8] ‖ role[8] entries (role 0 = consumer, 1 =
// producer), each grant's followed by its byte size[8].
func (mon *Monitor) directory(eid uint64, grants bool) []byte {
	type entry struct {
		endpoints
		role, size uint64
	}
	var entries []entry
	add := func(p endpoints, size uint64) {
		if p.Consumer == eid {
			entries = append(entries, entry{p, 0, size})
		}
		if p.Producer == eid {
			entries = append(entries, entry{p, 1, size})
		}
	}
	mon.objMu.RLock()
	if grants {
		for _, g := range mon.grants {
			add(g.endpoints, g.bytes())
		}
	} else {
		for _, r := range mon.rings {
			add(r.endpoints, 0)
		}
	}
	mon.objMu.RUnlock()
	slices.SortStableFunc(entries, func(a, b entry) int { return cmp.Compare(a.seq, b.seq) })
	out := make([]byte, 0, len(entries)*24)
	for _, en := range entries {
		out = binary.LittleEndian.AppendUint64(out, en.ID)
		out = binary.LittleEndian.AppendUint64(out, en.role)
		if grants {
			out = binary.LittleEndian.AppendUint64(out, en.size)
		}
	}
	return out
}

// ringCreate implements CallRingCreate (OS-domain): register a ring
// between a fixed producer and consumer. Endpoints are DomainOS or
// existing enclaves; the reserved SM identity is refused.
func (mon *Monitor) ringCreate(ringID, producer, consumer, capacity uint64) api.Error {
	if capacity == 0 || capacity > api.RingMaxCapacity {
		return api.ErrInvalidValue
	}
	return mon.lockEndpoints(ringID, producer, consumer, func(p endpoints) {
		mon.rings[ringID] = &Ring{endpoints: p, slots: make([]ringMsg, capacity),
			records: make([]byte, api.RingMaxBatch*api.RingRecordSize)}
	})
}

// ringDestroy implements CallRingDestroy (OS-domain): unregister the
// ring, free its id, and wake any parked consumer — whose re-executed
// park then fails with ErrInvalidValue, the consumer's shutdown
// signal. Undelivered messages are dropped (the ring is monitor
// memory; nothing leaks to any untrusted domain).
func (mon *Monitor) ringDestroy(ringID uint64) api.Error {
	r, st := mon.lookupRing(ringID)
	if st != api.OK {
		return st
	}
	weid, wtid := r.waiterEID, r.waiterTID
	r.dead = true
	queued := r.count
	// Undelivered scatter-gather descriptors die with the ring; their
	// in-flight pins on the grants must die too, or the grants could
	// never be revoked. Counted under r.mu, released under objMu so a
	// concurrent bulk_revoke sees a consistent grant table.
	sgQueued := make(map[uint64]int64)
	for i := 0; i < r.count; i++ {
		if gid := r.slots[(r.head+i)%len(r.slots)].grant; gid != 0 {
			sgQueued[gid]++
		}
	}
	mon.objMu.Lock()
	delete(mon.rings, ringID)
	mon.freeMetaPage(ringID)
	for gid, c := range sgQueued {
		if g := mon.grants[gid]; g != nil {
			g.inflight.Add(-c)
		}
	}
	mon.objMu.Unlock()
	r.mu.Unlock()
	if t := mon.tele; t != nil && queued > 0 {
		// Undelivered messages die with the ring; keep the fleet-wide
		// depth gauge honest.
		t.ringDepth.Add(-int64(queued))
	}
	if wtid != 0 {
		mon.postWake(machine.NoHart, ringID, weid, wtid)
	}
	return api.OK
}

// ringEnqueue appends the staged messages msgs (RingMsgSize bytes
// each) to the ring under its transaction lock, as many as fit, and
// wakes a parked consumer. sender and meas are the monitor-attested
// stamp; grant is zero for plain messages and the grant id for
// scatter-gather descriptors (bulk.go). Returns the count enqueued.
func (mon *Monitor) ringEnqueue(from int, ringID, sender uint64, meas [32]byte, grant uint64, msgs []byte) (int, api.Error) {
	r, st := mon.lookupRing(ringID)
	if st != api.OK {
		return 0, st
	}
	if r.Producer != sender {
		r.mu.Unlock()
		return 0, api.ErrUnauthorized
	}
	n := min(len(msgs)/api.RingMsgSize, len(r.slots)-r.count)
	if n == 0 {
		r.mu.Unlock()
		return 0, api.ErrInvalidState
	}
	for i := 0; i < n; i++ {
		slot := &r.slots[(r.head+r.count+i)%len(r.slots)]
		copy(slot.payload[:], msgs[i*api.RingMsgSize:])
		slot.sender, slot.meas, slot.grant = sender, meas, grant
	}
	r.count += n
	if t := mon.tele; t != nil {
		t.ringSendBatch.ObserveOn(from, uint64(n))
		t.ringDepth.Add(int64(n))
	}
	mon.unlockAndWake(r, from)
	return n, api.OK
}

// --- dispatch handlers ---

// batchLen validates a send/recv count argument and returns it.
func batchLen(count uint64) (int, bool) {
	if count == 0 || count > api.RingMaxBatch {
		return 0, false
	}
	return int(count), true
}

// ringSend is the one send path of both domains: mailbox_ring_send
// with g nil, bulk_send with the grant a3 names. The caller's messages
// are staged before the ring transaction (reading has no side effects,
// so a contended ring still means no state changed). A bulk sender
// must be a grant endpoint as well as the ring's producer, every
// message must parse as a descriptor list inside the grant before any
// is published — a bad descriptor in message k must not leave messages
// 0..k-1 queued — and the queued descriptors count in flight on the
// grant until received.
func (mon *Monitor) ringSend(req api.Request, ctx *callContext, g *Grant) api.Response {
	n, okCount := batchLen(req.Args[2])
	if !okCount {
		return fail(api.ErrInvalidValue)
	}
	var staged [api.RingMaxBatch * api.RingMsgSize]byte
	msgs := staged[:n*api.RingMsgSize]
	if !mon.readCaller(ctx, req.Args[1], msgs) {
		return fail(api.ErrInvalidValue)
	}
	sender, from := ctx.domain(), ctx.hart()
	var meas [32]byte
	if ctx != nil {
		meas = ctx.enclave.Measurement
	}
	var gid uint64
	if g != nil {
		if !g.isEndpoint(sender) {
			return fail(api.ErrUnauthorized)
		}
		for i := 0; i < n; i++ {
			if _, _, st := parseBulkDescs(msgs[i*api.RingMsgSize:(i+1)*api.RingMsgSize], g.bytes()); st != api.OK {
				return fail(st)
			}
		}
		// Publish in-flight before checking dead (the revoke protocol's
		// mirror image): a racing revoke either sees our count and
		// refuses, or has already marked the grant dead and we abort.
		g.inflight.Add(int64(n))
		if g.dead.Load() {
			g.inflight.Add(-int64(n))
			return fail(api.ErrInvalidValue)
		}
		gid = g.ID
	}
	sent, st := mon.ringEnqueue(from, req.Args[0], sender, meas, gid, msgs)
	if g != nil {
		// Unsent messages — all of them on failure, the tail when the
		// ring filled mid-batch — are not in flight.
		g.inflight.Add(-int64(n - sent))
	}
	if st != api.OK {
		return fail(st)
	}
	if t := mon.tele; t != nil && g != nil {
		// The accepted messages parsed above; parse them again for their
		// descriptor and byte counts rather than stage counts for every
		// send, telemetry or not.
		var total uint64
		for i := 0; i < sent; i++ {
			nd, bytes, _ := parseBulkDescs(msgs[i*api.RingMsgSize:(i+1)*api.RingMsgSize], g.bytes())
			total += bytes
			t.bulkDescs.ObserveOn(from, uint64(nd))
		}
		t.bulkBytes.Add(from, total)
	}
	return ok(uint64(sent))
}

// ringRecv is the one receive path of both domains: mailbox_ring_recv
// with g nil, bulk_recv with the grant a3 names. It drains the run of
// messages at the ring head stamped with the grant (plain messages for
// a plain recv): a plain recv refuses a descriptor head, because only
// bulk_recv knows the grant and releases the in-flight pins — a plain
// recv draining it would strand the grant un-revocable. The records
// are written while the ring transaction holds the lock and popped
// only after the copy-out succeeded, so a recv into an invalid buffer
// consumes nothing.
func (mon *Monitor) ringRecv(req api.Request, ctx *callContext, g *Grant) api.Response {
	max, okCount := batchLen(req.Args[2])
	if !okCount {
		return fail(api.ErrInvalidValue)
	}
	caller := ctx.domain()
	var gid uint64
	if g != nil {
		if !g.isEndpoint(caller) {
			return fail(api.ErrUnauthorized)
		}
		gid = g.ID
	}
	r, st := mon.lookupRing(req.Args[0])
	if st != api.OK {
		return fail(st)
	}
	defer r.mu.Unlock()
	if r.Consumer != caller {
		return fail(api.ErrUnauthorized)
	}
	if r.count == 0 {
		return fail(api.ErrInvalidState)
	}
	n := 0
	for n < max && n < r.count && r.slots[(r.head+n)%len(r.slots)].grant == gid {
		n++
	}
	if n == 0 {
		return fail(api.ErrInvalidValue) // the head message is not this grant's
	}
	// Each record is measurement ‖ sender id ‖ payload.
	recs := r.records[:n*api.RingRecordSize]
	for i := 0; i < n; i++ {
		slot := &r.slots[(r.head+i)%len(r.slots)]
		rec := recs[i*api.RingRecordSize:]
		copy(rec, slot.meas[:])
		binary.LittleEndian.PutUint64(rec[32:], slot.sender)
		copy(rec[api.RingStampSize:], slot.payload[:])
	}
	// Writing into a clone may resolve a COW alias; the enclave
	// transaction lock it takes is never held while anyone waits on a
	// ring lock, so the order ring → enclave cannot deadlock.
	if !mon.writeCaller(ctx, req.Args[1], recs) {
		return fail(api.ErrInvalidValue)
	}
	r.head = (r.head + n) % len(r.slots)
	r.count -= n
	if g != nil {
		g.inflight.Add(-int64(n))
	}
	if t := mon.tele; t != nil {
		t.ringRecvBatch.ObserveOn(ctx.hart(), uint64(n))
		t.ringDepth.Add(-int64(n))
	}
	return ok(uint64(n))
}

// hRingPark implements thread_park (enclave trap context only). A
// non-empty ring returns immediately; an empty one registers the
// thread as the ring's waiter and performs an AEX-style exit whose
// saved context re-executes this ECALL on resume — so a woken thread
// transparently re-checks the ring, and a spurious wake simply parks
// again. The ring lock is released before stopThread's blocking
// thread/enclave acquisitions, keeping ring locks leaves of the lock
// order.
func hRingPark(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	r, st := mon.lookupRing(req.Args[0])
	if st != api.OK {
		return fail(st)
	}
	if r.Consumer != ctx.enclave.ID {
		r.mu.Unlock()
		return fail(api.ErrUnauthorized)
	}
	if r.count > 0 {
		n := uint64(r.count)
		r.mu.Unlock()
		return ok(n)
	}
	if r.waiterTID != 0 && r.waiterTID != ctx.thread.ID {
		r.mu.Unlock()
		return fail(api.ErrInvalidState)
	}
	r.waiterEID, r.waiterTID = ctx.enclave.ID, ctx.thread.ID
	if t := mon.tele; t != nil {
		r.parkStamp = t.clock()
		t.ringParks.Inc(ctx.core.ID)
	}
	r.mu.Unlock()
	// AEX-save with the park marker: the PC is not advanced (the trap
	// path advances it only for non-transfer calls), so resume_aex
	// re-executes the park.
	mon.stopThread(uint64(ctx.core.ID), api.ParkedExitValue, true)
	ctx.transfer(machine.DispReturnToOS)
	return ok()
}

// hRingWake is the dual-domain explicit wake, authorized against the
// producer (wake-spoofing by any other domain is refused).
func hRingWake(mon *Monitor, req api.Request, ctx *callContext) api.Response {
	r, st := mon.lookupRing(req.Args[0])
	if st != api.OK {
		return fail(st)
	}
	if r.Producer != ctx.domain() {
		r.mu.Unlock()
		return fail(api.ErrUnauthorized)
	}
	if mon.unlockAndWake(r, ctx.hart()) {
		return ok(1)
	}
	return ok(0)
}
