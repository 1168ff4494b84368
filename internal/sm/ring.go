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

// Ring is the monitor's metadata for one mailbox ring. Contended calls
// fail with ErrRetry having changed nothing.
type Ring struct {
	objHeader
	endpoints

	slots []ringMsg
	head  int // oldest undelivered message
	count int

	// Parked consumer thread (0 = none). Registered by ring_park on an
	// empty ring, popped by the next send, an explicit wake, or
	// destroy.
	waiterEID uint64
	waiterTID uint64

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
// consumer, if any; from is the posting hart. Reports whether a
// consumer was woken. Caller holds r.mu.
func (mon *Monitor) unlockAndWake(r *Ring, from int) bool {
	weid, wtid := r.waiterEID, r.waiterTID
	r.waiterEID, r.waiterTID = 0, 0
	r.mu.Unlock()
	if wtid == 0 {
		return false
	}
	mon.postWake(from, r.ID, weid, wtid)
	return true
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
// mailbox with RunOnCall, as the wake request bound in New with the
// wake's words as its arguments, so a wake allocates nothing. It waits
// for the acknowledgment so a wake is never stranded in the mailbox of
// a core that just went idle — the wake is the only signal the OS has
// that a parked thread became runnable.
// from is the posting hart (machine.NoHart for host-side calls): a
// sender trapping on core 0 itself delivers inline, which is exactly
// its own instruction boundary. The wake stays advisory: a stale one
// costs the OS a failed enter_enclave, never monitor state.
func (mon *Monitor) postWake(from int, ringID, eid, tid uint64) {
	if mon.wakeSink.Load() != nil {
		mon.machine.RunOnCall(0, from, mon.wake, ringID, eid, tid)
	}
}

// wakeOS is the wake request: it hands one wake to the OS sink.
func (mon *Monitor) wakeOS(_ *machine.Core, ringID, eid, tid uint64) {
	mon.wakeSink.Load().(func(uint64, uint64, uint64))(ringID, eid, tid)
}

// lockEndpoints registers a new ring or grant: under objMu, it claims
// id — a free metadata page, like every other monitor object id — and
// registers the object build returns, while every enclave endpoint is
// held under its transaction lock. Paired with deleteEnclave's
// endpoint guard, this excludes the race where an object attaches to an
// enclave mid-deletion and survives it: either the create sees the
// enclave and the delete then refuses, or the delete wins and the
// create fails (retry or unknown id).
func (mon *Monitor) lockEndpoints(id, producer, consumer uint64, build func(p endpoints) object) api.Response {
	p := endpoints{ID: id, Producer: producer, Consumer: consumer}
	for _, who := range p.distinct() {
		if who == api.DomainOS {
			continue
		}
		e, st := lookup[*Enclave](mon, LockEnclave, who)
		if st != api.OK {
			return fail(st)
		}
		defer e.mu.Unlock()
	}
	mon.objMu.Lock()
	defer mon.objMu.Unlock()
	if !mon.metaPageFree(id) {
		return fail(api.ErrInvalidValue)
	}
	mon.pairSeq++
	p.seq = mon.pairSeq
	mon.objects[id] = build(p)
	return ok()
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
	for _, o := range mon.objects {
		switch o := o.(type) {
		case *Grant:
			if grants {
				add(o.endpoints, o.bytes())
			}
		case *Ring:
			if !grants {
				add(o.endpoints, 0)
			}
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

// ringCreate implements CallRingCreate (OS-domain): register ring a0
// of capacity a3 between a fixed producer a1 and consumer a2. Endpoints
// are DomainOS or existing enclaves; the reserved SM identity is
// refused.
func (mon *Monitor) ringCreate(req api.Request, _ *callContext) api.Response {
	capacity := req.Args[3]
	if capacity == 0 || capacity > api.RingMaxCapacity {
		return fail(api.ErrInvalidValue)
	}
	return mon.lockEndpoints(req.Args[0], req.Args[1], req.Args[2], func(p endpoints) object {
		return &Ring{endpoints: p, slots: make([]ringMsg, capacity),
			records: make([]byte, api.RingMaxBatch*api.RingRecordSize)}
	})
}

// ringDestroy implements CallRingDestroy (OS-domain): unregister ring
// a0, free its id, and wake any parked consumer — whose re-executed
// park then fails with ErrInvalidValue, the consumer's shutdown
// signal. Undelivered messages are dropped (the ring is monitor
// memory; nothing leaks to any untrusted domain).
func (mon *Monitor) ringDestroy(req api.Request, _ *callContext) api.Response {
	ringID := req.Args[0]
	r, st := lookup[*Ring](mon, LockRing, ringID)
	if st != api.OK {
		return fail(st)
	}
	weid, wtid := r.waiterEID, r.waiterTID
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
	mon.unregister(ringID)
	for gid, c := range sgQueued {
		if g, found := mon.objects[gid].(*Grant); found {
			g.inflight.Add(-c)
		}
	}
	mon.objMu.Unlock()
	r.mu.Unlock()
	if wtid != 0 {
		mon.postWake(machine.NoHart, ringID, weid, wtid)
	}
	return ok()
}

// ringEnqueue appends the staged messages msgs (RingMsgSize bytes
// each) to the ring under its transaction lock, as many as fit, and
// wakes a parked consumer. sender and meas are the monitor-attested
// stamp; grant is zero for plain messages and the grant id for
// scatter-gather descriptors (bulk.go). Returns the count enqueued.
func (mon *Monitor) ringEnqueue(from int, ringID, sender uint64, meas [32]byte, grant uint64, msgs []byte) (int, api.Error) {
	r, st := lookup[*Ring](mon, LockRing, ringID)
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

// callGrant is the grant a3 names for bulk_send and bulk_recv — nil
// for the plain ring calls — and false when a bulk call names none. The
// send/recv paths do not lock it; they synchronize through its dead and
// inflight atomics (bulk.go).
func (mon *Monitor) callGrant(req api.Request) (*Grant, bool) {
	if req.Call != api.CallBulkSend && req.Call != api.CallBulkRecv {
		return nil, true
	}
	return get[*Grant](mon, req.Args[3])
}

// ringSend is the one send path of both domains: mailbox_ring_send,
// and bulk_send with the grant a3 names. The caller's messages are
// staged before the ring transaction (reading has no side effects, so
// a contended ring still means no state changed). A bulk sender must
// be a grant endpoint as well as the ring's producer, every message
// must parse as a descriptor list inside the grant before any is
// published — a bad descriptor in message k must not leave messages
// 0..k-1 queued — and the queued descriptors count in flight on the
// grant until received.
func (mon *Monitor) ringSend(req api.Request, ctx *callContext) api.Response {
	g, found := mon.callGrant(req)
	if !found {
		return fail(api.ErrInvalidValue)
	}
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
			if st := parseBulkDescs(msgs[i*api.RingMsgSize:(i+1)*api.RingMsgSize], g.bytes()); st != api.OK {
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
	return ok(uint64(sent))
}

// ringRecv is the one receive path of both domains: mailbox_ring_recv,
// and bulk_recv with the grant a3 names. It drains the run of
// messages at the ring head stamped with the grant (plain messages for
// a plain recv): a plain recv refuses a descriptor head, because only
// bulk_recv knows the grant and releases the in-flight pins — a plain
// recv draining it would strand the grant un-revocable. The records
// are written while the ring transaction holds the lock and popped
// only after the copy-out succeeded, so a recv into an invalid buffer
// consumes nothing.
func (mon *Monitor) ringRecv(req api.Request, ctx *callContext) api.Response {
	g, found := mon.callGrant(req)
	if !found {
		return fail(api.ErrInvalidValue)
	}
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
	r, st := lookup[*Ring](mon, LockRing, req.Args[0])
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
	return ok(uint64(n))
}

// ringPark implements thread_park (enclave trap context only). A
// non-empty ring returns immediately; an empty one registers the
// thread as the ring's waiter and performs an AEX-style exit whose
// saved context re-executes this ECALL on resume — so a woken thread
// transparently re-checks the ring, and a spurious wake simply parks
// again. The ring lock is released before stopThread's blocking
// thread/enclave acquisitions, keeping ring locks leaves of the lock
// order.
func (mon *Monitor) ringPark(req api.Request, ctx *callContext) api.Response {
	r, st := lookup[*Ring](mon, LockRing, req.Args[0])
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
	r.mu.Unlock()
	// AEX-save with the park marker: the PC is not advanced (the trap
	// path advances it only for non-transfer calls), so resume_aex
	// re-executes the park.
	mon.stopThread(uint64(ctx.core.ID), api.ParkedExitValue, true)
	ctx.transfer(machine.DispReturnToOS)
	return ok()
}

// ringWake is the dual-domain explicit wake, authorized against the
// producer (wake-spoofing by any other domain is refused).
func (mon *Monitor) ringWake(req api.Request, ctx *callContext) api.Response {
	r, st := lookup[*Ring](mon, LockRing, req.Args[0])
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
