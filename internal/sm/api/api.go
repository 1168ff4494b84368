// Package api defines the security monitor's unified call ABI: the one
// contract between all untrusted software — OS and enclaves alike — and
// the monitor (paper §V-A, Fig 3). Every monitor operation is a call
// number plus up to six register-sized arguments, submitted as a
// Request and answered with a Response; the monitor routes by call
// number and authorizes by caller domain in a single dispatch point
// (sm.Monitor.Dispatch).
//
// Enclaves invoke the monitor through the ECALL instruction with the
// call number in a7 and arguments in a0..a5; the status returns in a0
// and the first result value in a1. The untrusted OS — host Go code
// standing in for an S-mode kernel in this reproduction — submits the
// same Requests through Monitor.Dispatch, one call at a time, normally
// via the typed smcall client, which also centralizes the §V-A retry
// discipline for ErrRetry.
//
// The ABI is versioned: CallGetABIVersion reports Version, and callers
// are expected to probe it before relying on calls newer than major 1.
package api

import (
	"encoding/binary"
	"fmt"
)

// Error is the status returned by every monitor call, in a0. It
// implements the Go error interface, so statuses flow through error
// wrapping and errors.Is against the exported sentinel values; OK is
// the zero Error and should be converted with Err rather than returned
// as a non-nil error.
type Error uint64

// Monitor call status codes.
const (
	OK Error = iota
	// ErrInvalidValue: a parameter failed validation (bad alignment,
	// out-of-range address, unknown ID).
	ErrInvalidValue
	// ErrInvalidState: the operation is illegal in the object's current
	// lifecycle state (e.g. loading a page into an initialized enclave).
	ErrInvalidState
	// ErrConcurrentCall: another transaction holds one of the object
	// locks; the caller should retry (paper §V-A: the SM fails
	// transactions in case of a concurrent operation). New code should
	// use the ErrRetry name; this spelling is kept for ABI stability.
	ErrConcurrentCall
	// ErrUnauthorized: the caller does not own the object or lacks the
	// privilege for the call (including calls outside the caller's
	// domain: an enclave invoking an OS-only call or vice versa).
	ErrUnauthorized
	// ErrNoResources: allocation failed (metadata space, PMP entries,
	// enclave physical pages, free mailboxes).
	ErrNoResources
	// ErrNotSupported: the call number is unknown or not available to
	// this caller.
	ErrNotSupported
)

// ErrRetry is the transaction-contention status of the paper's §V-A
// locking discipline: monitor calls take fine-grained per-object locks
// with try-lock semantics and fail — rather than block — when another
// hart's transaction holds one of them. The caller (untrusted OS or
// enclave) is expected to simply retry; no monitor state changed. It is
// the same ABI value as the legacy ErrConcurrentCall name, so existing
// guest binaries and callers are unaffected. The smcall client retries
// it centrally with bounded backoff.
const ErrRetry = ErrConcurrentCall

func (e Error) String() string {
	switch e {
	case OK:
		return "ok"
	case ErrInvalidValue:
		return "invalid-value"
	case ErrInvalidState:
		return "invalid-state"
	case ErrConcurrentCall:
		return "concurrent-call"
	case ErrUnauthorized:
		return "unauthorized"
	case ErrNoResources:
		return "no-resources"
	case ErrNotSupported:
		return "not-supported"
	default:
		return fmt.Sprintf("error(%d)", uint64(e))
	}
}

// Error implements the error interface by delegating to String, so a
// status wraps cleanly with %w and matches its sentinel under
// errors.Is.
func (e Error) Error() string { return e.String() }

// Err converts a status into a Go error: nil for OK, the status value
// itself otherwise.
func (e Error) Err() error {
	if e == OK {
		return nil
	}
	return e
}

// ABI version, reported by CallGetABIVersion in Values[0]/a1. The major
// half bumps on incompatible changes to existing calls; the minor half
// bumps when calls are added.
const (
	VersionMajor = 1
	// Minor 1 added the snapshot/clone calls (0x30–0x32) and the
	// FieldEnclaveIdentity selector. Minor 2 added the mailbox-ring
	// calls (0x40–0x45) and the FieldEnclaveRings selector. Minor 3
	// added the bulk-grant calls (0x50–0x54) and the FieldEnclaveGrants
	// selector.
	VersionMinor = 3
	// Version packs major and minor into the single register the probe
	// returns.
	Version = VersionMajor<<16 | VersionMinor
)

// Call is a monitor call number (register a7).
type Call uint64

// Request is one monitor call as submitted to Monitor.Dispatch: the
// caller's protection domain, the call number, and the a0..a5 argument
// registers. Caller is DomainOS for the untrusted OS; enclave callers
// never populate it themselves — the monitor derives the calling
// enclave's identity from the trapping core, and host-side Requests
// claiming an enclave caller are refused with ErrUnauthorized.
type Request struct {
	Caller uint64
	Call   Call
	Args   [6]uint64
}

// Response is the result of one monitor call: the a0 status and the
// a1/a2 result registers. Enclave callers receive Values[0] in a1;
// OS-side calls with two results (e.g. CallRegionInfo) use both.
type Response struct {
	Status Error
	Values [2]uint64
}

// OSRequest builds a Request from the OS domain with up to six
// arguments; extra arguments are a programming error and are dropped.
func OSRequest(call Call, args ...uint64) Request {
	r := Request{Caller: DomainOS, Call: call}
	copy(r.Args[:], args)
	return r
}

// Enclave-invocable call numbers (a7). These run in the trapping
// enclave's domain; the OS cannot invoke them (except where a call is
// explicitly dual-domain, noted per call).
const (
	// CallExitEnclave ends the current thread's execution slice and
	// returns the core to the OS. a0 carries an enclave-defined result.
	CallExitEnclave Call = 0x01
	// CallGetRandom returns entropy from the trusted source in a1.
	CallGetRandom Call = 0x02
	// CallAcceptMail(a0=mailbox index, a1=expected sender eid).
	CallAcceptMail Call = 0x03
	// CallSendMail delivers a mailbox message. Dual-domain: an enclave
	// passes (a0=recipient eid, a1=message VA) and the monitor reads
	// MailboxSize bytes from enclave memory; the OS passes
	// (a0=recipient eid, a1=source PA in OS-owned memory, a2=length ≤
	// MailboxSize, zero-padded) and is stamped with the reserved OS
	// identity and a zero measurement.
	CallSendMail Call = 0x04
	// CallGetMail(a0=mailbox index, a1=output VA). The monitor writes
	// the 32-byte sender measurement followed by the message bytes.
	CallGetMail Call = 0x05
	// CallAcceptThread(a0=tid, a1=entry PC, a2=entry SP).
	CallAcceptThread Call = 0x06
	// CallReleaseThread(a0=tid).
	CallReleaseThread Call = 0x07
	// CallAcceptRegion(a0=region index).
	CallAcceptRegion Call = 0x08
	// CallBlockRegion(a0=region index) blocks a region the caller owns.
	// Dual-domain: the owner is the calling enclave from a trap, the OS
	// from a host-side Request (block(resource) in Fig 2).
	CallBlockRegion Call = 0x09
	// CallGetField reads monitor metadata (§VI-C). Dual-domain: an
	// enclave passes (a0=field id, a1=output VA, a2=max length); the OS
	// passes (a0=field id, a1=output PA in OS-owned memory, a2=max
	// length). Returns the byte count in a1/Values[0].
	CallGetField Call = 0x0A
	// CallAttestSign(a0=input VA, a1=input length, a2=output VA) signs
	// the input with the SM attestation key. Restricted to the signing
	// enclave (see DESIGN.md: the signature is computed by the monitor
	// on the signing enclave's behalf because the simulated ISA does not
	// run Ed25519; the trust structure — only the hard-coded signing
	// enclave measurement may use the key — is preserved).
	CallAttestSign Call = 0x0B
	// CallResumeAEX restores the register file saved by the last
	// asynchronous enclave exit and continues from the interrupted PC.
	CallResumeAEX Call = 0x0C
	// CallSetFaultHandler(a0=handler PC, a1=handler SP) registers an
	// enclave-virtual fault handler for this thread.
	CallSetFaultHandler Call = 0x0D
	// CallResumeFault returns from the enclave fault handler to the
	// faulting context.
	CallResumeFault Call = 0x0E
	// CallMyEnclaveID returns the caller's eid in a1.
	CallMyEnclaveID Call = 0x0F
	// CallKADerive(a0=private scalar VA, a1=output VA) writes the
	// X25519 public share for an enclave-held 32-byte private scalar.
	// This and the two calls below are the monitor's crypto service:
	// the simulated ISA cannot run curve arithmetic, so enclaves invoke
	// the monitor for it, with all key material living in enclave
	// memory (see DESIGN.md's substitution table).
	CallKADerive Call = 0x10
	// CallKACombine(a0=private scalar VA, a1=peer share VA, a2=output
	// VA) writes the 32-byte session key.
	CallKACombine Call = 0x11
	// CallMAC(a0=key VA, a1=message VA, a2=message length, a3=output
	// VA) writes a 32-byte authenticator.
	CallMAC Call = 0x12
)

// CallGetABIVersion reports the ABI version (Version) in a1/Values[0].
// Any caller domain may probe it.
const CallGetABIVersion Call = 0x1F

// OS-invocable call numbers. These are the resource-management verbs of
// Figs 2–4: the untrusted OS proposes, the monitor verifies. Enclaves
// invoking them are refused with ErrUnauthorized.
const (
	// CallCreateEnclave(a0=eid, a1=evBase, a2=evMask) starts the
	// enclave lifecycle (Fig 3). eid must be a free page inside an SM
	// metadata region.
	CallCreateEnclave Call = 0x20
	// CallAllocPageTable(a0=eid, a1=va, a2=level) allocates the enclave
	// page-table page covering va at the given level, top-down.
	CallAllocPageTable Call = 0x21
	// CallLoadPage(a0=eid, a1=va, a2=source PA in OS memory, a3=perms)
	// copies one page of initial contents into the enclave and maps it.
	CallLoadPage Call = 0x22
	// CallMapShared(a0=eid, a1=va outside evrange, a2=OS-owned PA) maps
	// an untrusted shared window through the enclave's tables (§VII-B).
	CallMapShared Call = 0x23
	// CallInitEnclave(a0=eid) seals the enclave and finalizes its
	// measurement.
	CallInitEnclave Call = 0x24
	// CallDeleteEnclave(a0=eid) tears the enclave down; owned regions
	// become blocked.
	CallDeleteEnclave Call = 0x25
	// CallEnclaveStatus(a0=eid, a1=measurement output PA or 0) reports
	// the enclave lifecycle state in Values[0]; when a1 is non-zero the
	// monitor writes the 32-byte measurement to that OS-owned address
	// (the measurement of an initialized enclave is public —
	// attestation, not secrecy, protects it).
	CallEnclaveStatus Call = 0x26
	// CallLoadThread(a0=eid, a1=tid, a2=entry PC, a3=entry SP) creates
	// a measured thread during loading (Fig 4).
	CallLoadThread Call = 0x27
	// CallCreateThread(a0=tid) creates an unbound, unmeasured thread.
	CallCreateThread Call = 0x28
	// CallAssignThread(a0=eid, a1=tid) offers an available thread to an
	// initialized enclave.
	CallAssignThread Call = 0x29
	// CallUnassignThread(a0=tid) takes a non-running thread away; its
	// context is scrubbed.
	CallUnassignThread Call = 0x2A
	// CallDeleteThread(a0=tid) destroys an available thread.
	CallDeleteThread Call = 0x2B
	// CallEnterEnclave(a0=core id, a1=eid, a2=tid) schedules a thread
	// onto an idle OS-owned core.
	CallEnterEnclave Call = 0x2C
	// CallRegionInfo(a0=region index) reports a region's lifecycle
	// state in Values[0] and its owner in Values[1].
	CallRegionInfo Call = 0x2D
	// CallGrantRegion(a0=region index, a1=new owner) re-allocates an
	// available or OS-owned region (grant(resource, new_owner), Fig 2).
	CallGrantRegion Call = 0x2E
	// CallCleanRegion(a0=region index) scrubs a blocked region and
	// makes it available (clean(resource), Fig 2).
	CallCleanRegion Call = 0x2F
)

// Snapshot/clone call numbers (ABI minor 1). A snapshot freezes an
// initialized enclave — the template — read-only and records its
// measured layout; clones are fresh enclaves whose data pages alias
// the snapshot's pages copy-on-write and whose measurement identity is
// inherited from the template, which turns the O(all pages + hashing)
// measured build into an O(page-table pages) fork (DESIGN.md §8).
const (
	// CallSnapshotEnclave(a0=eid, a1=snapshot id) freezes an
	// initialized, non-running enclave's pages read-only and registers
	// the snapshot under the given id — a free page inside an SM
	// metadata region, exactly like enclave and thread ids.
	CallSnapshotEnclave Call = 0x30
	// CallCloneEnclave(a0=eid, a1=snapshot id, a2=tid base, a3=shared
	// PA override or 0) builds a fresh enclave from a snapshot: eid
	// names a Loading enclave with granted regions, a matching evrange
	// and nothing loaded; the monitor allocates its page tables in its
	// own memory, aliases the snapshot's data pages copy-on-write, and
	// seals it with the template measurement. Template thread i is
	// recreated under tid = tidBase + i*4096 (free metadata pages). A
	// non-zero a3 rebases the template's single shared window onto
	// that OS-owned page, giving each clone a private untrusted buffer.
	CallCloneEnclave Call = 0x31
	// CallReleaseSnapshot(a0=snapshot id) dissolves a snapshot with no
	// outstanding clones: the template's pages thaw (write permissions
	// restored) and the id is freed. Refused with ErrInvalidState while
	// any clone still aliases the snapshot's pages.
	CallReleaseSnapshot Call = 0x32
)

// Mailbox-ring call numbers (ABI minor 2). Rings are the streaming
// counterpart of the single-slot mailboxes (§VI-B): a fixed-capacity
// FIFO of fixed-size messages in monitor-tracked memory, named — like
// enclaves, threads and snapshots — by a free SM metadata page, so ring
// ids are unforgeable. Each ring has one producer and one consumer
// protection domain fixed at creation (DomainOS or an eid); send is
// authorized against the producer, recv against the consumer, and the
// monitor stamps every message with the sender's identity and
// measurement, so provenance is attestation-grade exactly as for
// mailboxes. Send and recv move up to RingMaxBatch messages per call,
// which amortizes the per-call monitor overhead; thread_park lets an
// enclave consumer block on an empty ring, and a send to a parked ring
// wakes it through the inter-processor mailboxes instead of OS polling.
const (
	// CallRingCreate(a0=ring id, a1=producer, a2=consumer, a3=capacity)
	// registers a ring. ring id must be a free page inside an SM
	// metadata region; producer/consumer are DomainOS or existing eids;
	// capacity is in messages, 1..RingMaxCapacity.
	CallRingCreate Call = 0x40
	// CallRingSend delivers up to a2 messages (1..RingMaxBatch) of
	// RingMsgSize bytes each, contiguous at the source address.
	// Dual-domain: an enclave producer passes (a0=ring id, a1=source
	// VA, a2=count); the OS passes (a0=ring id, a1=source PA in
	// OS-owned memory, a2=count). Transfers min(count, free slots)
	// messages and returns the count in a1/Values[0]; a full ring
	// refuses with ErrInvalidState having transferred nothing. A send
	// that finds the consumer parked wakes it.
	CallRingSend Call = 0x41
	// CallRingRecv drains up to a2 messages (1..RingMaxBatch) into the
	// destination, each written as a RingRecordSize record:
	// sender measurement[32] ‖ sender id[8] ‖ payload[RingMsgSize].
	// Dual-domain like send, authorized against the consumer. Returns
	// the record count in a1/Values[0]; an empty ring refuses with
	// ErrInvalidState.
	CallRingRecv Call = 0x42
	// CallRingPark(a0=ring id) blocks the calling enclave thread on an
	// empty ring (thread_park). A non-empty ring returns immediately
	// with the message count in a1. Otherwise the monitor registers the
	// thread as the ring's waiter and performs an AEX-style exit with
	// ParkedExitValue in the OS's a0; the saved context re-executes
	// this ECALL on resume, so a woken thread simply re-checks the
	// ring. One waiter per ring; a second thread parking is refused
	// with ErrInvalidState.
	CallRingPark Call = 0x43
	// CallRingWake(a0=ring id) explicitly wakes the ring's parked
	// waiter, if any (send wakes implicitly). Producer-only; returns 1
	// in a1 if a waiter was woken, 0 otherwise.
	CallRingWake Call = 0x44
	// CallRingDestroy(a0=ring id) unregisters a ring and frees its id.
	// Undelivered messages are dropped; a parked waiter is woken, and
	// its re-executed park fails with ErrInvalidValue — the consumer's
	// shutdown signal.
	CallRingDestroy Call = 0x45
)

// Bulk-grant call numbers (ABI minor 3). A grant pins a span of
// OS-owned pages as an untrusted shared buffer between a fixed
// producer/consumer domain pair — the Fig 2 region-ownership machinery
// narrowed to page granularity, with the page refcounts as ground
// truth: granted pages cannot be scrubbed (clean_region refuses ranges
// holding references) and the grant cannot be revoked while
// scatter-gather descriptors into it are still queued in a ring. Ring
// messages then carry descriptors — (offset, length) lists validated
// against the grant bounds at send time — so multi-KB payloads move
// through the buffer with zero monitor copies on the data path; the
// monitor only ever copies the 64-byte descriptor message (DESIGN.md
// §14).
const (
	// CallBulkGrant(a0=grant id, a1=base PA, a2=page count, a3=producer,
	// a4=consumer) registers a grant over [base, base+pages*4096) in
	// OS-owned memory and pins every page with an alias reference.
	// grant id must be a free page inside an SM metadata region;
	// producer/consumer are DomainOS or existing eids; page count is
	// 1..BulkMaxPages. OS-only.
	CallBulkGrant Call = 0x50
	// CallBulkMap(a0=grant id, a1=va) maps the grant's pages read-write
	// into the calling enclave's tables at va — page-aligned, outside
	// the evrange, with the covering leaf page tables already allocated
	// (clones inherit the template's tables, so a template built with a
	// shared window at the same 2 MiB leaf satisfies this). The caller
	// must be one of the grant's endpoints; each endpoint maps at most
	// once. Enclave-only — the accept half of the grant handshake.
	CallBulkMap Call = 0x51
	// CallBulkRevoke(a0=grant id) unmaps the grant from every endpoint
	// that mapped it (with targeted shootdowns), drops the page pins,
	// and frees the id. Refused with ErrInvalidState while any
	// scatter-gather descriptor into the grant is still queued in a
	// ring — in-flight data keeps the buffer alive. OS-only.
	CallBulkRevoke Call = 0x52
	// CallBulkSend is CallRingSend for scatter-gather messages: each
	// 64-byte payload must parse as a descriptor list into a3's grant
	// (BulkTag ‖ count ‖ (offset, length)×BulkMaxDescs), validated
	// against the grant bounds before anything is published. Dual-
	// domain: (a0=ring id, a1=source VA/PA, a2=count, a3=grant id); the
	// sender must be both the ring's producer and a grant endpoint.
	// Queued descriptors count as in-flight on the grant until
	// received; a plain CallRingRecv refuses them with ErrInvalidValue.
	CallBulkSend Call = 0x53
	// CallBulkRecv is CallRingRecv for scatter-gather messages: drains
	// up to a2 descriptor records for a3's grant from the ring head
	// (stopping early at a plain message) and releases their in-flight
	// pins. Dual-domain like recv; the caller must be both the ring's
	// consumer and a grant endpoint.
	CallBulkRecv Call = 0x54
)

// Bulk-grant geometry. A descriptor message is one RingMsgSize payload:
// BulkTag[8] ‖ descriptor count[8] ‖ (offset[8] ‖ length[8]) ×
// BulkMaxDescs — exactly 64 bytes. Offsets and lengths are in bytes
// relative to the grant base; every descriptor must have length > 0,
// offset+length ≤ the grant's byte size (no wraparound), and no two
// descriptors in one message may overlap.
const (
	// BulkTag marks a payload as a descriptor list ("blkd" in ASCII).
	// It is a parse anchor, not a capability — authority comes from the
	// grant id argument and the send-time bounds checks.
	BulkTag uint64 = 0x646B6C62
	// BulkMaxDescs is the descriptor capacity of one message.
	BulkMaxDescs = 3
	// BulkMaxPages bounds a grant's size in pages (256 KiB).
	BulkMaxPages = 64
)

// EncodeBulkDescs builds one descriptor message payload from (offset,
// length) pairs: BulkTag ‖ count ‖ the pairs, zero-padded. It encodes
// whatever it is given — including the adversarial shapes the monitor
// must refuse — so tests can drive the validator; callers wanting a
// deliverable message must respect the descriptor rules themselves.
// More than BulkMaxDescs pairs are truncated. The slots beyond the
// descriptors (payload[16+16·len(descs):]) are application-defined;
// bulk servers carry their opcode and key there.
func EncodeBulkDescs(descs ...[2]uint64) [RingMsgSize]byte {
	var msg [RingMsgSize]byte
	if len(descs) > BulkMaxDescs {
		descs = descs[:BulkMaxDescs]
	}
	binary.LittleEndian.PutUint64(msg[0:], BulkTag)
	binary.LittleEndian.PutUint64(msg[8:], uint64(len(descs)))
	for i, d := range descs {
		binary.LittleEndian.PutUint64(msg[16+16*i:], d[0])
		binary.LittleEndian.PutUint64(msg[24+16*i:], d[1])
	}
	return msg
}

// Ring geometry. Messages are fixed-size; recv prepends the
// monitor-attested sender stamp to each.
const (
	// RingMsgSize is the fixed ring message payload size in bytes.
	RingMsgSize = 64
	// RingStampSize is the per-message sender stamp a recv writes:
	// measurement[32] ‖ sender id[8].
	RingStampSize = 40
	// RingRecordSize is one recv output record: stamp ‖ payload.
	RingRecordSize = RingStampSize + RingMsgSize
	// RingMaxCapacity bounds a ring's capacity in messages.
	RingMaxCapacity = 1024
	// RingMaxBatch bounds the messages one send/recv call may move.
	RingMaxBatch = 32
)

// ParkedExitValue is the a0 value the OS observes when an enclave
// thread parks on an empty ring (CallRingPark): the monitor performs an
// AEX-style exit with this marker so schedulers can tell "parked, wake
// pending" from an ordinary exit_enclave. ("park" in ASCII.)
const ParkedExitValue uint64 = 0x6B726170

// RegionState is the lifecycle state of a DRAM region resource as
// reported by CallRegionInfo, implementing the paper's Fig 2 state
// machine.
type RegionState uint8

// Region states.
const (
	// RegionOwned: exclusively held by a protection domain.
	RegionOwned RegionState = iota
	// RegionPending: granted by the OS to an initialized enclave but
	// not yet accepted (accept_resource completes the transition).
	RegionPending
	// RegionBlocked: relinquished by its owner; unusable until cleaned.
	RegionBlocked
	// RegionAvailable: cleaned and ready for re-allocation.
	RegionAvailable
)

func (s RegionState) String() string {
	switch s {
	case RegionOwned:
		return "owned"
	case RegionPending:
		return "pending"
	case RegionBlocked:
		return "blocked"
	case RegionAvailable:
		return "available"
	default:
		return "region-state-?"
	}
}

// EnclaveState is the lifecycle state of an enclave as reported by
// CallEnclaveStatus (paper Fig 3).
type EnclaveState uint8

// Enclave states.
const (
	// EnclaveLoading: created; the OS may grant resources and load
	// contents, all of which the monitor measures.
	EnclaveLoading EnclaveState = iota
	// EnclaveInitialized: sealed; threads may be scheduled; contents
	// can no longer be altered through the API.
	EnclaveInitialized
	// EnclaveDead: deleted; kept only transiently for error reporting.
	EnclaveDead
)

func (s EnclaveState) String() string {
	switch s {
	case EnclaveLoading:
		return "loading"
	case EnclaveInitialized:
		return "initialized"
	case EnclaveDead:
		return "dead"
	default:
		return "enclave-state-?"
	}
}

// Field identifies monitor metadata readable via get_field (§VI-C).
type Field uint64

// get_field selectors.
const (
	// FieldSMMeasurement is the 32-byte monitor measurement.
	FieldSMMeasurement Field = 1
	// FieldSMPublicKey is the monitor's attestation public key.
	FieldSMPublicKey Field = 2
	// FieldCertChain is the marshalled manufacturer→device→monitor
	// certificate chain.
	FieldCertChain Field = 3
	// FieldEnclaveMeasurement is the calling enclave's own measurement
	// (valid only for enclave callers).
	FieldEnclaveMeasurement Field = 4
	// FieldEnclaveIdentity is the calling enclave's full attestation
	// identity (valid only for enclave callers): 48 bytes laid out as
	// measurement[32] ‖ eid[8] ‖ origin[8], where origin is 0 for an
	// enclave built and measured directly and 1 for a clone inheriting
	// a snapshot template's measurement. Evidence built over this field
	// distinguishes the (shared) template measurement from the
	// (per-clone) enclave identity.
	FieldEnclaveIdentity Field = 5
	// FieldEnclaveRings lists the mailbox rings the calling enclave is
	// an endpoint of (valid only for enclave callers), in ring-creation
	// order: one 16-byte entry per ring, laid out as ring id[8] ‖
	// role[8] with role 0 for consumer and 1 for producer. Ring ids are
	// SM metadata pages a guest cannot guess, so this is how a cloned
	// worker — whose measured image cannot embed per-clone names —
	// discovers its own request/response rings.
	FieldEnclaveRings Field = 6
	// FieldEnclaveGrants lists the bulk grants the calling enclave is an
	// endpoint of (valid only for enclave callers), in grant-creation
	// order: one 24-byte entry per grant, laid out as grant id[8] ‖
	// role[8] ‖ byte size[8] with role 0 for consumer and 1 for
	// producer. Like FieldEnclaveRings, this is how a cloned worker —
	// whose measured image cannot embed per-clone names — discovers the
	// shared buffer it should bulk_map.
	FieldEnclaveGrants Field = 7
)

// Reserved protection-domain constants (paper §V-C: the SM and
// untrusted software are identified via reserved constants; enclave IDs
// are metadata physical addresses, which are page-aligned and therefore
// never collide with these).
const (
	DomainOS uint64 = 0
	DomainSM uint64 = 1
)

// MailboxSize is the fixed mailbox message size in bytes.
const MailboxSize = 128

// MailboxesPerEnclave is the number of mailboxes in each enclave's
// metadata structure.
const MailboxesPerEnclave = 4
