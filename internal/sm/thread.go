package sm

import (
	"sanctorum/internal/isa"
	"sanctorum/internal/sm/api"
)

// ThreadState is the lifecycle state of an enclave thread (paper Fig 4).
type ThreadState uint8

// Thread states.
const (
	// ThreadAvailable: exists, bound to no enclave.
	ThreadAvailable ThreadState = iota
	// ThreadOffered: assigned by the OS, awaiting accept_thread.
	ThreadOffered
	// ThreadAssigned: bound to an enclave, not on a core.
	ThreadAssigned
	// ThreadRunning: executing on a core.
	ThreadRunning
)

func (s ThreadState) String() string {
	switch s {
	case ThreadAvailable:
		return "available"
	case ThreadOffered:
		return "offered"
	case ThreadAssigned:
		return "assigned"
	case ThreadRunning:
		return "running"
	default:
		return "thread-state-?"
	}
}

// Thread is the monitor's metadata for one enclave thread, named like
// every monitor object by its metadata page.
type Thread struct {
	objHeader

	ID    uint64
	State ThreadState
	Owner uint64 // owning eid when offered/assigned/running

	EntryPC uint64
	EntrySP uint64

	CoreID int // core while running

	// AEX context (paper §V-C): register file and PC saved on an
	// asynchronous enclave exit, plus the flag the enclave can inspect.
	AEXValid bool
	aexRegs  [isa.NumRegs]uint64
	aexPC    uint64

	// Enclave-registered fault handler and the context saved when the
	// monitor delegates a fault to it.
	FaultPC   uint64
	FaultSP   uint64
	inFault   bool
	faultRegs [isa.NumRegs]uint64
	faultPC   uint64
}

func (t *Thread) clearContext() {
	t.EntryPC, t.EntrySP = 0, 0
	t.AEXValid, t.aexPC = false, 0
	t.aexRegs = [isa.NumRegs]uint64{}
	t.FaultPC, t.FaultSP = 0, 0
	t.inFault, t.faultPC = false, 0
	t.faultRegs = [isa.NumRegs]uint64{}
}

// loadThread creates thread a1 with entry a2/a3 during enclave loading
// (Fig 3/4: load_thread by the OS, CallLoadThread). The thread is
// measured into the enclave and is immediately in the assigned state.
// The caller holds e's transaction lock.
func (mon *Monitor) loadThread(e *Enclave, req api.Request) api.Response {
	tid, entryPC, entrySP := req.Args[1], req.Args[2], req.Args[3]
	if e.State != EnclaveLoading {
		return fail(api.ErrInvalidState)
	}
	if !e.InEvrange(entryPC) {
		return fail(api.ErrInvalidValue)
	}
	t := &Thread{ID: tid, State: ThreadAssigned, Owner: e.ID, EntryPC: entryPC, EntrySP: entrySP}
	mon.objMu.Lock()
	defer mon.objMu.Unlock()
	if !mon.register(tid, t) {
		return fail(api.ErrInvalidValue)
	}
	e.Threads[tid] = t
	e.measurement().ExtendThread(entryPC, entrySP)
	return ok()
}

// createThread creates an unbound thread after enclave initialization
// (Fig 4: the available state, CallCreateThread). It is not measured;
// an enclave must explicitly accept it.
func (mon *Monitor) createThread(req api.Request, _ *callContext) api.Response {
	tid := req.Args[0]
	mon.objMu.Lock()
	defer mon.objMu.Unlock()
	if !mon.register(tid, &Thread{ID: tid, State: ThreadAvailable}) {
		return fail(api.ErrInvalidValue)
	}
	return ok()
}

// assignThread offers the available thread a1 to the initialized
// enclave a0 (Fig 4: assign_thread by the OS, CallAssignThread).
func (mon *Monitor) assignThread(req api.Request, _ *callContext) api.Response {
	eid, tid := req.Args[0], req.Args[1]
	e, st := lookup[*Enclave](mon, LockEnclave, eid)
	if st != api.OK {
		return fail(st)
	}
	defer e.mu.Unlock()
	if e.State != EnclaveInitialized {
		return fail(api.ErrInvalidState)
	}
	t, st := lookup[*Thread](mon, LockThread, tid)
	if st != api.OK {
		return fail(st)
	}
	defer t.mu.Unlock()
	if t.State != ThreadAvailable {
		return fail(api.ErrInvalidState)
	}
	t.State, t.Owner = ThreadOffered, eid
	e.Threads[tid] = t
	return ok()
}

// unassignThread takes the non-running thread a0 away from its enclave
// (Fig 4: unassign_thread by the OS, CallUnassignThread). The thread
// context is scrubbed so no enclave state leaks through the metadata.
func (mon *Monitor) unassignThread(req api.Request, _ *callContext) api.Response {
	tid := req.Args[0]
	t, st := lookup[*Thread](mon, LockThread, tid)
	if st != api.OK {
		return fail(st)
	}
	defer t.mu.Unlock()
	switch t.State {
	case ThreadOffered, ThreadAssigned:
	default:
		return fail(api.ErrInvalidState)
	}
	if e, found := get[*Enclave](mon, t.Owner); found {
		if !mon.tryLock(&e.mu, LockEnclave, t.Owner) {
			return fail(api.ErrRetry)
		}
		delete(e.Threads, tid)
		e.mu.Unlock()
	}
	t.State, t.Owner = ThreadAvailable, 0
	t.clearContext()
	return ok()
}

// acceptThread completes the OS's offer of thread a0 with entry a1/a2
// (Fig 4: accept_thread by the enclave). Called from the enclave's trap
// context with no locks held. The offer already entered the thread in
// the enclave's table, so only the thread's own lock is taken.
func (mon *Monitor) acceptThread(req api.Request, ctx *callContext) api.Response {
	e, tid, entryPC, entrySP := ctx.enclave, req.Args[0], req.Args[1], req.Args[2]
	if !e.InEvrange(entryPC) {
		return fail(api.ErrInvalidValue)
	}
	t, st := lookup[*Thread](mon, LockThread, tid)
	if st != api.OK {
		return fail(st)
	}
	defer t.mu.Unlock()
	if t.State != ThreadOffered || t.Owner != e.ID {
		return fail(api.ErrInvalidState)
	}
	t.State = ThreadAssigned
	t.EntryPC, t.EntrySP = entryPC, entrySP
	return ok()
}

// releaseThread lets an enclave give thread a0 back (Fig 4:
// release_thread by the enclave).
func (mon *Monitor) releaseThread(req api.Request, ctx *callContext) api.Response {
	e, tid := ctx.enclave, req.Args[0]
	t, st := lookup[*Thread](mon, LockThread, tid)
	if st != api.OK {
		return fail(st)
	}
	defer t.mu.Unlock()
	if t.State != ThreadAssigned || t.Owner != e.ID {
		return fail(api.ErrInvalidState)
	}
	if !mon.tryLock(&e.mu, LockEnclave, e.ID) {
		return fail(api.ErrRetry)
	}
	defer e.mu.Unlock()
	delete(e.Threads, tid)
	t.State, t.Owner = ThreadAvailable, 0
	t.clearContext()
	return ok()
}

// deleteThread destroys the available thread a0 (Fig 4: delete_thread
// by the OS, CallDeleteThread).
func (mon *Monitor) deleteThread(req api.Request, _ *callContext) api.Response {
	tid := req.Args[0]
	t, st := lookup[*Thread](mon, LockThread, tid)
	if st != api.OK {
		return fail(st)
	}
	defer t.mu.Unlock()
	if t.State != ThreadAvailable {
		return fail(api.ErrInvalidState)
	}
	mon.objMu.Lock()
	mon.unregister(tid)
	mon.objMu.Unlock()
	return ok()
}

// enterEnclave schedules thread a2 of enclave a1 onto core a0 (Fig 4:
// enter_enclave by the OS, CallEnterEnclave). The monitor cleans the
// core, programs the enclave view, and points execution at the thread's
// entry; the OS then drives the core with machine.Run. On entry,
// register a0 tells the enclave whether an AEX context is pending (it
// may CallResumeAEX).
//
// The call must come from the core's driver while the core is idle (a
// core already inside Run fails the core-slot transaction). Contention
// on the enclave, the thread, the core slot, or the core's run mutex —
// e.g. two harts racing to schedule threads of one enclave, or an IPI
// poster briefly holding the idle core — fails with ErrRetry.
func (mon *Monitor) enterEnclave(req api.Request, _ *callContext) api.Response {
	// int() maps any register value ≥ 2^63 to a negative number, which
	// the core-range check refuses.
	coreID, eid, tid := int(req.Args[0]), req.Args[1], req.Args[2]
	if coreID < 0 || coreID >= len(mon.machine.Cores) {
		return fail(api.ErrInvalidValue)
	}
	e, st := lookup[*Enclave](mon, LockEnclave, eid)
	if st != api.OK {
		return fail(st)
	}
	defer e.mu.Unlock()
	if e.State != EnclaveInitialized {
		return fail(api.ErrInvalidState)
	}
	t, st := lookup[*Thread](mon, LockThread, tid)
	if st != api.OK {
		return fail(st)
	}
	defer t.mu.Unlock()
	if t.State != ThreadAssigned || t.Owner != eid {
		return fail(api.ErrInvalidState)
	}

	slot := &mon.cores[coreID]
	if !mon.tryLock(&slot.mu, LockCoreSlot, uint64(coreID)) {
		return fail(api.ErrRetry)
	}
	if slot.owner != api.DomainOS {
		slot.mu.Unlock()
		return fail(api.ErrInvalidState)
	}
	core := mon.machine.Cores[coreID]
	// Core microarchitectural state may only be touched while holding
	// the core's run ownership; an idle core's runMu is free (or held
	// momentarily by an IPI poster, in which case the transaction
	// fails and the caller retries). The fault hook covers this
	// acquisition too — it is a §V-A transaction step like any mutex.
	if mon.lockFault(LockCore, uint64(coreID)) || !core.TryAcquire() {
		slot.mu.Unlock()
		return fail(api.ErrRetry)
	}
	slot.owner, slot.tid = eid, tid
	slot.mu.Unlock()
	osRegions := mon.osRegions()

	// Re-allocating the core resource to the enclave domain: clean it.
	core.ClearMicroarch()
	core.ClearArchState()
	err := mon.plat.ApplyEnclaveView(core, EnclaveView{
		RootPPN: e.RootPPN,
		EvBase:  e.EvBase,
		EvMask:  e.EvMask,
		// The access view includes regions borrowed from a snapshot
		// template, so a clone can read its aliased pages.
		Regions:   e.accessRegions(),
		OSRegions: osRegions,
	})
	if err != nil {
		core.Release()
		slot.mu.Lock()
		slot.owner, slot.tid = api.DomainOS, 0
		slot.mu.Unlock()
		return fail(api.ErrNoResources)
	}
	core.CPU.Mode = isa.PrivU
	core.CPU.PC = t.EntryPC
	core.CPU.Halted = false
	core.CPU.SetReg(isa.RegSP, t.EntrySP)
	if t.AEXValid {
		core.CPU.SetReg(isa.RegA0, 1)
	}
	core.Release()
	t.State = ThreadRunning
	t.CoreID = coreID
	e.running++
	return ok()
}

// stopThread moves a running thread off its core: shared tail of
// exit_enclave and AEX. It runs in the core's own trap context (the
// hart holds its runMu), so touching the core is safe; the thread and
// enclave locks are taken blocking — an AEX cannot fail — which is
// safe because those locks are only ever held briefly and never while
// waiting on another hart (DESIGN.md §5).
func (mon *Monitor) stopThread(core, exitValue uint64, saveAEX bool) {
	coreID := int(core)
	slot := &mon.cores[coreID]
	slot.mu.Lock()
	eid, tid := slot.owner, slot.tid
	slot.owner, slot.tid = api.DomainOS, 0
	slot.mu.Unlock()
	mon.objMu.RLock()
	e, _ := mon.objects[eid].(*Enclave)
	t, _ := mon.objects[tid].(*Thread)
	mon.objMu.RUnlock()
	osRegions := mon.osRegions()

	c := mon.machine.Cores[coreID]
	if t != nil {
		t.mu.Lock()
		if saveAEX {
			t.AEXValid = true
			t.aexRegs = c.CPU.Regs
			t.aexPC = c.CPU.PC
		}
		t.State = ThreadAssigned
		t.CoreID = -1
		t.mu.Unlock()
	}
	if e != nil {
		e.mu.Lock()
		e.running--
		e.mu.Unlock()
	}
	// Clean the core before the OS domain gets it back.
	c.ClearMicroarch()
	c.ClearArchState()
	mon.plat.ApplyOSView(c, osRegions)
	c.CPU.Mode = isa.PrivU
	// An explicit exit may pass one register of results to the OS.
	c.CPU.SetReg(isa.RegA0, exitValue)
}
