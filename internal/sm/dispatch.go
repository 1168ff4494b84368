package sm

import (
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/sm/api"
)

// This file is the monitor's single dispatch surface: every monitor
// call — from the untrusted OS and from enclaves alike — is an
// api.Request routed through one table by call number, with the
// caller-domain authorization applied in exactly one place (paper §V-A:
// the SM exposes the same register-convention API to all untrusted
// software). The enclave trap path (trap.go) and the host-side
// Dispatch/DispatchBatch entries both land in dispatch below.

// Caller domains a call may be invoked from.
const (
	domainOS      uint8 = 1 << 0
	domainEnclave uint8 = 1 << 1
	domainAny           = domainOS | domainEnclave
)

// callContext is the machine context of an enclave ECALL: the trapping
// core and the enclave/thread executing on it. Host-side dispatches
// carry a nil context — which is itself the privilege boundary: only a
// trapping core can speak for an enclave, so a host Request claiming an
// enclave caller is refused before any handler runs.
type callContext struct {
	core    *machine.Core
	enclave *Enclave
	thread  *Thread

	// transferred is set by control-transfer handlers (exit, resume):
	// the handler already programmed the core and the trap path must
	// not write back a status or advance the PC.
	transferred bool
	disp        machine.Disposition
}

func (ctx *callContext) transfer(d machine.Disposition) {
	ctx.transferred = true
	ctx.disp = d
}

// domain is the caller's protection domain: the trapping enclave's id,
// or api.DomainOS for a host-side call (nil context).
func (ctx *callContext) domain() uint64 {
	if ctx == nil {
		return api.DomainOS
	}
	return ctx.enclave.ID
}

// callDef describes one ABI call: its name, which domains may invoke
// it, and its handler. Every handler takes the request and the call
// context (nil for a host-side call) and unpacks its own arguments.
// Calls that operate on a caller-named enclave under its
// transaction lock (the enclave-build sequence) provide encHandler
// instead: dispatch looks the enclave named by Args[0] up and holds its
// lock for the handler's transaction.
type callDef struct {
	name       string
	domains    uint8
	handler    func(mon *Monitor, req api.Request, ctx *callContext) api.Response
	encHandler func(mon *Monitor, e *Enclave, req api.Request) api.Response
}

func ok(values ...uint64) api.Response {
	r := api.Response{Status: api.OK}
	copy(r.Values[:], values)
	return r
}

// fail wraps a status — a known error or a relayed transaction result —
// into a Response with no values.
func fail(st api.Error) api.Response { return api.Response{Status: st} }

// callTable is the one routing table of the ABI, indexed by call
// number; an unnamed entry is an unknown call. The call-number
// inventory (arguments, results, error sets) is documented in DESIGN.md
// §"Monitor call ABI".
var callTable = [...]callDef{
	// Probe — any domain.
	api.CallGetABIVersion: {"get_abi_version", domainAny, (*Monitor).abiVersion, nil},

	// Enclave-domain calls (trap context only).
	api.CallExitEnclave:     {"exit_enclave", domainEnclave, (*Monitor).exitEnclave, nil},
	api.CallGetRandom:       {"get_random", domainEnclave, (*Monitor).getRandom, nil},
	api.CallAcceptMail:      {"accept_mail", domainEnclave, (*Monitor).acceptMail, nil},
	api.CallGetMail:         {"get_mail", domainEnclave, (*Monitor).getMail, nil},
	api.CallAcceptThread:    {"accept_thread", domainEnclave, (*Monitor).acceptThread, nil},
	api.CallReleaseThread:   {"release_thread", domainEnclave, (*Monitor).releaseThread, nil},
	api.CallAcceptRegion:    {"accept_region", domainEnclave, (*Monitor).acceptRegion, nil},
	api.CallAttestSign:      {"attest_sign", domainEnclave, (*Monitor).attestSign, nil},
	api.CallResumeAEX:       {"resume_aex", domainEnclave, (*Monitor).resumeAEX, nil},
	api.CallSetFaultHandler: {"set_fault_handler", domainEnclave, (*Monitor).setFaultHandler, nil},
	api.CallResumeFault:     {"resume_fault", domainEnclave, (*Monitor).resumeFault, nil},
	api.CallMyEnclaveID:     {"my_enclave_id", domainEnclave, (*Monitor).myEnclaveID, nil},
	api.CallKADerive:        {"ka_derive", domainEnclave, (*Monitor).kaDerive, nil},
	api.CallKACombine:       {"ka_combine", domainEnclave, (*Monitor).kaCombine, nil},
	api.CallMAC:             {"mac", domainEnclave, (*Monitor).mac, nil},

	// Dual-domain calls: one number, per-domain argument convention.
	api.CallSendMail:    {"send_mail", domainAny, (*Monitor).sendMail, nil},
	api.CallGetField:    {"get_field", domainAny, (*Monitor).getField, nil},
	api.CallBlockRegion: {"block_region", domainAny, (*Monitor).blockRegion, nil},

	// OS-domain calls (Figs 2–4 resource management).
	api.CallCreateEnclave:  {"create_enclave", domainOS, (*Monitor).createEnclave, nil},
	api.CallAllocPageTable: {"allocate_page_table", domainOS, nil, (*Monitor).allocatePageTable},
	api.CallLoadPage:       {"load_page", domainOS, nil, (*Monitor).loadPage},
	api.CallMapShared:      {"map_shared", domainOS, nil, (*Monitor).mapShared},
	api.CallInitEnclave:    {"init_enclave", domainOS, nil, (*Monitor).initEnclave},
	api.CallDeleteEnclave:  {"delete_enclave", domainOS, (*Monitor).deleteEnclave, nil},
	api.CallEnclaveStatus:  {"enclave_status", domainOS, nil, (*Monitor).enclaveStatus},
	api.CallLoadThread:     {"load_thread", domainOS, nil, (*Monitor).loadThread},
	api.CallCreateThread:   {"create_thread", domainOS, (*Monitor).createThread, nil},
	api.CallAssignThread:   {"assign_thread", domainOS, (*Monitor).assignThread, nil},
	api.CallUnassignThread: {"unassign_thread", domainOS, (*Monitor).unassignThread, nil},
	api.CallDeleteThread:   {"delete_thread", domainOS, (*Monitor).deleteThread, nil},
	api.CallEnterEnclave:   {"enter_enclave", domainOS, (*Monitor).enterEnclave, nil},
	api.CallRegionInfo:     {"region_info", domainOS, (*Monitor).regionInfo, nil},
	api.CallGrantRegion:    {"grant_region", domainOS, (*Monitor).grantRegion, nil},
	api.CallCleanRegion:    {"clean_region", domainOS, (*Monitor).cleanRegion, nil},

	// Mailbox-ring calls (0x40–0x45, ABI minor 2): streaming IPC with
	// batched send/recv and park/wake scheduling (DESIGN.md §9).
	api.CallRingCreate:  {"mailbox_ring_create", domainOS, (*Monitor).ringCreate, nil},
	api.CallRingSend:    {"mailbox_ring_send", domainAny, (*Monitor).ringSend, nil},
	api.CallRingRecv:    {"mailbox_ring_recv", domainAny, (*Monitor).ringRecv, nil},
	api.CallRingPark:    {"thread_park", domainEnclave, (*Monitor).ringPark, nil},
	api.CallRingWake:    {"mailbox_ring_wake", domainAny, (*Monitor).ringWake, nil},
	api.CallRingDestroy: {"mailbox_ring_destroy", domainOS, (*Monitor).ringDestroy, nil},

	// Bulk-grant calls (0x50–0x54, ABI minor 3): the zero-copy data
	// plane — monitor-granted shared buffers with scatter-gather
	// descriptors over the rings (DESIGN.md §14). bulk_send and
	// bulk_recv are the ring send and recv with the grant a3 names.
	api.CallBulkGrant:  {"bulk_grant", domainOS, (*Monitor).bulkGrant, nil},
	api.CallBulkMap:    {"bulk_map", domainEnclave, (*Monitor).bulkMap, nil},
	api.CallBulkRevoke: {"bulk_revoke", domainOS, (*Monitor).bulkRevoke, nil},
	api.CallBulkSend:   {"bulk_send", domainAny, (*Monitor).ringSend, nil},
	api.CallBulkRecv:   {"bulk_recv", domainAny, (*Monitor).ringRecv, nil},

	// Snapshot/clone calls (0x30–0x32, ABI minor 1): fork-from-measured-
	// template lifecycle (DESIGN.md §8).
	api.CallSnapshotEnclave: {"snapshot_enclave", domainOS, (*Monitor).snapshotEnclave, nil},
	api.CallCloneEnclave:    {"clone_enclave", domainOS, (*Monitor).cloneEnclave, nil},
	api.CallReleaseSnapshot: {"release_snapshot", domainOS, (*Monitor).releaseSnapshot, nil},
}

// CallNames returns the ABI's call names indexed by call number, ""
// where a number names no call: the names untrusted observers give
// their per-call instruments.
func CallNames() []string {
	names := make([]string, len(callTable))
	for c, def := range callTable {
		names[c] = def.name
	}
	return names
}

// callDefOf returns the table entry for call number c, or nil when c
// names no call.
func callDefOf(c api.Call) *callDef {
	if c < api.Call(len(callTable)) && callTable[c].name != "" {
		return &callTable[c]
	}
	return nil
}

// indexArg narrows a register argument to a small index (region or
// mailbox), mapping anything that does not round-trip to -1 so the
// range checks in the transactions reject it.
func indexArg(v uint64) int {
	i := int(v)
	if i < 0 || uint64(i) != v {
		return -1
	}
	return i
}

// Dispatch executes one monitor call from host-side untrusted software
// (the OS of the paper's threat model) and returns its Response. It is
// the OS half of the unified ABI: the same call table and the same
// authorization the enclave trap path uses, so every privilege check
// lives here. Host callers may only speak for the OS domain — Requests
// with an enclave Caller are refused with ErrUnauthorized, because an
// enclave identity can only be established by a core trapping out of
// that enclave.
//
// Contended calls fail with api.ErrRetry having changed no state; the
// smcall client centralizes the retry discipline.
func (mon *Monitor) Dispatch(req api.Request) api.Response {
	return mon.dispatch(req, nil)
}

// dispatch is the single routing point for both entries. ctx is nil for
// host-side (OS) calls and carries the trapping core for enclave calls.
func (mon *Monitor) dispatch(req api.Request, ctx *callContext) api.Response {
	def := callDefOf(req.Call)
	if def == nil {
		return fail(api.ErrNotSupported)
	}
	if ctx == nil {
		if req.Caller != api.DomainOS || def.domains&domainOS == 0 {
			return fail(api.ErrUnauthorized)
		}
	} else if def.domains&domainEnclave == 0 {
		return fail(api.ErrUnauthorized)
	}
	if def.encHandler != nil {
		e, st := lookup[*Enclave](mon, LockEnclave, req.Args[0])
		if st != api.OK {
			return fail(st)
		}
		defer e.mu.Unlock()
		return def.encHandler(mon, e, req)
	}
	return def.handler(mon, req, ctx)
}

// DispatchBatch submits a sequence of OS-domain calls in order,
// returning one Response per Request. A batch is a sequence, not a
// transaction: each element is exactly a lone Dispatch, holding no lock
// once it returns, and an element's failure does not roll back its
// predecessors. The one thing a batch adds to a caller-side loop is the
// contention cut: the first ErrRetry stops the batch at that element;
// it and every later element return ErrRetry unexecuted, so the caller
// can re-submit the tail without re-running the completed prefix.
// The OS never batches — it issues lone calls through the smcall
// client — and the entry stays only because the serving benchmark's
// ledger tap (servebench/ledger.go) forwards it.
func (mon *Monitor) DispatchBatch(reqs []api.Request) []api.Response {
	out := make([]api.Response, len(reqs))
	for i := range reqs {
		if out[i] = mon.dispatch(reqs[i], nil); out[i].Status == api.ErrRetry {
			for j := i + 1; j < len(reqs); j++ {
				out[j] = fail(api.ErrRetry)
			}
			break
		}
	}
	return out
}

func (mon *Monitor) abiVersion(api.Request, *callContext) api.Response { return ok(api.Version) }

// --- Enclave-domain handlers (ctx is always non-nil: the table only
// routes these from a trap context) ---

func (mon *Monitor) exitEnclave(req api.Request, ctx *callContext) api.Response {
	mon.stopThread(uint64(ctx.core.ID), req.Args[0], false)
	ctx.transfer(machine.DispReturnToOS)
	return ok()
}

func (mon *Monitor) resumeAEX(_ api.Request, ctx *callContext) api.Response {
	t := ctx.thread
	t.mu.Lock()
	if !t.AEXValid {
		t.mu.Unlock()
		return fail(api.ErrInvalidState)
	}
	ctx.core.CPU.Regs = t.aexRegs
	ctx.core.CPU.PC = t.aexPC
	t.AEXValid = false
	t.mu.Unlock()
	ctx.transfer(machine.DispResume)
	return ok()
}

func (mon *Monitor) resumeFault(_ api.Request, ctx *callContext) api.Response {
	t := ctx.thread
	t.mu.Lock()
	if !t.inFault {
		t.mu.Unlock()
		return fail(api.ErrInvalidState)
	}
	ctx.core.CPU.Regs = t.faultRegs
	ctx.core.CPU.PC = t.faultPC
	t.inFault = false
	t.mu.Unlock()
	ctx.transfer(machine.DispResume)
	return ok()
}

func (mon *Monitor) setFaultHandler(req api.Request, ctx *callContext) api.Response {
	pc, sp := req.Args[0], req.Args[1]
	if pc != 0 && !ctx.enclave.InEvrange(pc) {
		return fail(api.ErrInvalidValue)
	}
	t := ctx.thread
	t.mu.Lock()
	t.FaultPC, t.FaultSP = pc, sp
	t.mu.Unlock()
	return ok()
}

func (mon *Monitor) getRandom(api.Request, *callContext) api.Response {
	var b [8]byte
	mon.machine.Entropy.Read(b[:])
	var v uint64
	for i, x := range b {
		v |= uint64(x) << (8 * uint(i))
	}
	return ok(v)
}

func (mon *Monitor) myEnclaveID(_ api.Request, ctx *callContext) api.Response {
	return ok(ctx.enclave.ID)
}

// --- Dual-domain handlers: ctx non-nil means the enclave convention,
// nil the OS convention ---

// sendMail delivers a mailbox message stamped with the sender's
// identity: an enclave sends MailboxSize bytes from its VA a1; the OS
// sends a2 bytes, zero-padded, from the OS-owned PA a1, carrying the
// reserved OS identity and a zero measurement so no enclave can mistake
// it for an enclave.
func (mon *Monitor) sendMail(req api.Request, ctx *callContext) api.Response {
	var msg [api.MailboxSize]byte
	var meas [32]byte
	n := uint64(api.MailboxSize)
	if ctx != nil {
		meas = ctx.enclave.Measurement
	} else if n = req.Args[2]; n > api.MailboxSize {
		return fail(api.ErrInvalidValue)
	}
	// An empty OS message reads nothing, so its address goes unchecked.
	if n > 0 && !mon.readCaller(ctx, req.Args[1], msg[:n]) {
		return fail(api.ErrInvalidValue)
	}
	return fail(mon.deliverMail(ctx.domain(), meas, req.Args[0], msg[:]))
}

func (mon *Monitor) getField(req api.Request, ctx *callContext) api.Response {
	var caller *Enclave
	if ctx != nil {
		caller = ctx.enclave
	}
	data, st := mon.fieldBytes(api.Field(req.Args[0]), caller)
	if st != api.OK {
		return fail(st)
	}
	if uint64(len(data)) > req.Args[2] || !mon.writeCaller(ctx, req.Args[1], data) {
		return fail(api.ErrInvalidValue)
	}
	return ok(uint64(len(data)))
}
