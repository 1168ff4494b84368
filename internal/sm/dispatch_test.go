package sm

import (
	"testing"

	"sanctorum/internal/sm/api"
)

// monSnapshot wraps the shared invariant suite (invariant.go): one
// CaptureState/Equal implementation serves these sweeps, the
// internal/mc interleaving explorer, and the adversary battery. The
// full-fidelity capture strictly subsumes the old ad-hoc counts, so a
// refused call that mutated any object field — not just map sizes —
// now fails the error-leaves-state-untouched tests.
type monSnapshot struct{ *StateSnapshot }

func snapshot(mon *Monitor) monSnapshot { return monSnapshot{mon.CaptureState()} }

func (s monSnapshot) equal(o monSnapshot) bool {
	return s.StateSnapshot.Equal(o.StateSnapshot)
}

// osOnlyCalls and enclaveOnlyCalls enumerate the single-domain halves
// of the call table for the wrong-domain sweeps. Kept literal — not
// derived from callTable — so a routing change that silently moved a
// call across domains would fail the test rather than retune it.
var osOnlyCalls = []api.Call{
	api.CallCreateEnclave, api.CallAllocPageTable, api.CallLoadPage,
	api.CallMapShared, api.CallInitEnclave, api.CallDeleteEnclave,
	api.CallEnclaveStatus, api.CallLoadThread, api.CallCreateThread,
	api.CallAssignThread, api.CallUnassignThread, api.CallDeleteThread,
	api.CallEnterEnclave, api.CallRegionInfo, api.CallGrantRegion,
	api.CallCleanRegion,
	api.CallSnapshotEnclave, api.CallCloneEnclave, api.CallReleaseSnapshot,
	api.CallRingCreate, api.CallRingDestroy,
	api.CallBulkGrant, api.CallBulkRevoke,
}

var enclaveOnlyCalls = []api.Call{
	api.CallExitEnclave, api.CallGetRandom, api.CallAcceptMail,
	api.CallGetMail, api.CallAcceptThread, api.CallReleaseThread,
	api.CallAcceptRegion, api.CallAttestSign, api.CallResumeAEX,
	api.CallSetFaultHandler, api.CallResumeFault, api.CallMyEnclaveID,
	api.CallKADerive, api.CallKACombine, api.CallMAC,
	api.CallRingPark, api.CallBulkMap,
}

func TestDispatchUnknownCallNumbers(t *testing.T) {
	f := newFixture(t)
	before := snapshot(f.mon)
	for _, call := range []api.Call{0x00, 0x13, 0x1E, 0x33, 0x3F, 0x46, 0x4F, 0x55, 0x100, 0xFFFF, 1 << 40, ^api.Call(0)} {
		resp := f.mon.Dispatch(api.OSRequest(call, 1, 2, 3, 4, 5, 6))
		if resp.Status != api.ErrNotSupported {
			t.Errorf("undefined call %#x: %v, want ErrNotSupported", uint64(call), resp.Status)
		}
		if resp.Values != ([2]uint64{}) {
			t.Errorf("undefined call %#x leaked values %v", uint64(call), resp.Values)
		}
	}
	if !snapshot(f.mon).equal(before) {
		t.Fatal("an undefined call mutated monitor state")
	}
}

func TestDispatchRefusesWrongDomain(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	f.loadMinimal(t, eid, 1)
	f.InitEnclave(eid)
	before := snapshot(f.mon)

	// Enclave-only calls from the OS domain.
	for _, call := range enclaveOnlyCalls {
		if resp := f.mon.Dispatch(api.OSRequest(call, 1, 2, 3)); resp.Status != api.ErrUnauthorized {
			t.Errorf("OS invoked enclave call %#x: %v, want ErrUnauthorized", uint64(call), resp.Status)
		}
	}
	// Host-side requests may not impersonate an enclave at all — for
	// any call, including dual-domain and OS-only ones: the enclave
	// identity is derived from a trapping core, never caller-supplied.
	allCalls := append(append([]api.Call{}, osOnlyCalls...), enclaveOnlyCalls...)
	allCalls = append(allCalls, api.CallSendMail, api.CallGetField,
		api.CallBlockRegion, api.CallGetABIVersion,
		api.CallRingSend, api.CallRingRecv, api.CallRingWake,
		api.CallBulkSend, api.CallBulkRecv)
	for _, call := range allCalls {
		req := api.Request{Caller: eid, Call: call, Args: [6]uint64{eid, 2, 3}}
		if resp := f.mon.Dispatch(req); resp.Status != api.ErrUnauthorized {
			t.Errorf("forged enclave caller for call %#x: %v, want ErrUnauthorized",
				uint64(call), resp.Status)
		}
	}
	// OS-only calls from a (simulated) enclave trap context: the same
	// path trap.go drives, with a live enclave and thread.
	f.mon.objMu.RLock()
	e := f.mon.enclaves[eid]
	f.mon.objMu.RUnlock()
	ctx := &callContext{core: f.m.Cores[0], enclave: e, thread: &Thread{}}
	for _, call := range osOnlyCalls {
		req := api.Request{Caller: eid, Call: call, Args: [6]uint64{eid, 2, 3}}
		if resp := f.mon.dispatch(req, ctx); resp.Status != api.ErrUnauthorized {
			t.Errorf("enclave invoked OS call %#x: %v, want ErrUnauthorized", uint64(call), resp.Status)
		}
		if ctx.transferred {
			t.Fatalf("refused call %#x transferred control", uint64(call))
		}
	}
	if !snapshot(f.mon).equal(before) {
		t.Fatal("a wrong-domain call mutated monitor state")
	}
}

func TestDispatchOutOfRangeArguments(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	// A sealed second enclave, so the snapshot-call sweeps exercise the
	// argument checks past the lifecycle check.
	sealed := f.createLoading(t, 4, 11)
	f.loadMinimal(t, sealed, 5)
	if st := f.InitEnclave(sealed); st != api.OK {
		t.Fatalf("init sealed: %v", st)
	}
	// A live OS↔OS ring and grant, so the ring and bulk sweeps exercise
	// the checks past the object lookups.
	ring, grant := f.metaPage(12), f.metaPage(13)
	if st := f.call(api.CallRingCreate, ring, api.DomainOS, api.DomainOS, 8); st != api.OK {
		t.Fatalf("ring_create: %v", st)
	}
	if st := f.call(api.CallBulkGrant, grant, f.m.DRAM.Base(2), 1, api.DomainOS, api.DomainOS); st != api.OK {
		t.Fatalf("bulk_grant: %v", st)
	}
	stage, buf := f.m.DRAM.Base(1), f.m.DRAM.Base(3) // OS-owned
	before := snapshot(f.mon)
	huge := ^uint64(0)
	cases := []struct {
		name string
		req  api.Request
		want api.Error
	}{
		{"region index past end", api.OSRequest(api.CallRegionInfo, 64), api.ErrInvalidValue},
		{"region index 2^63", api.OSRequest(api.CallRegionInfo, 1<<63), api.ErrInvalidValue},
		{"region index all-ones", api.OSRequest(api.CallRegionInfo, huge), api.ErrInvalidValue},
		{"grant to unknown owner", api.OSRequest(api.CallGrantRegion, 3, 0xDEAD000), api.ErrInvalidValue},
		{"grant out-of-range region", api.OSRequest(api.CallGrantRegion, huge, api.DomainOS), api.ErrInvalidValue},
		{"block out-of-range region", api.OSRequest(api.CallBlockRegion, 1<<32), api.ErrInvalidValue},
		{"clean out-of-range region", api.OSRequest(api.CallCleanRegion, huge), api.ErrInvalidValue},
		{"create with bad evrange", api.OSRequest(api.CallCreateEnclave, f.metaPage(5), 0x1000, 0), api.ErrInvalidValue},
		{"create outside metadata region", api.OSRequest(api.CallCreateEnclave, 0x1000, testEvBase, testEvMask), api.ErrInvalidValue},
		{"table level past top", api.OSRequest(api.CallAllocPageTable, eid, 0, 99), api.ErrInvalidValue},
		{"table level all-ones", api.OSRequest(api.CallAllocPageTable, eid, 0, huge), api.ErrInvalidValue},
		{"load into unknown enclave", api.OSRequest(api.CallLoadPage, 0xBAD, testEvBase, 0x1000, 1), api.ErrInvalidValue},
		{"status of unknown enclave", api.OSRequest(api.CallEnclaveStatus, 0xBAD, 0), api.ErrInvalidValue},
		{"status into non-OS memory", api.OSRequest(api.CallEnclaveStatus, eid, f.meta), api.ErrInvalidValue},
		{"delete unknown thread", api.OSRequest(api.CallDeleteThread, 0xBAD), api.ErrInvalidValue},
		{"enter on core past end", api.OSRequest(api.CallEnterEnclave, 5, eid, 0), api.ErrInvalidValue},
		{"enter on core all-ones", api.OSRequest(api.CallEnterEnclave, huge, eid, 0), api.ErrInvalidValue},
		{"send to unknown recipient", api.OSRequest(api.CallSendMail, 0xBAD, 0x1000, api.MailboxSize), api.ErrInvalidValue},
		{"send oversized message", api.OSRequest(api.CallSendMail, eid, 0x1000, api.MailboxSize+1), api.ErrInvalidValue},
		{"get_field unknown selector", api.OSRequest(api.CallGetField, 99, 0x1000, 4096), api.ErrInvalidValue},
		{"get_field into non-OS memory", api.OSRequest(api.CallGetField, uint64(api.FieldSMMeasurement), f.meta, 4096), api.ErrInvalidValue},
		{"snapshot unknown enclave", api.OSRequest(api.CallSnapshotEnclave, 0xBAD, f.metaPage(8)), api.ErrInvalidValue},
		{"snapshot a loading enclave", api.OSRequest(api.CallSnapshotEnclave, eid, f.metaPage(8)), api.ErrInvalidState},
		{"snapshot id outside metadata region", api.OSRequest(api.CallSnapshotEnclave, sealed, 0x1000), api.ErrInvalidValue},
		{"snapshot id unaligned", api.OSRequest(api.CallSnapshotEnclave, sealed, f.metaPage(8)+4), api.ErrInvalidValue},
		{"snapshot id all-ones", api.OSRequest(api.CallSnapshotEnclave, sealed, huge), api.ErrInvalidValue},
		{"clone from unknown snapshot", api.OSRequest(api.CallCloneEnclave, eid, 0xBAD, f.metaPage(8), 0), api.ErrInvalidValue},
		{"clone from all-ones snapshot", api.OSRequest(api.CallCloneEnclave, eid, huge, f.metaPage(8), 0), api.ErrInvalidValue},
		{"clone into unknown enclave", api.OSRequest(api.CallCloneEnclave, 0xBAD, f.metaPage(8), f.metaPage(9), 0), api.ErrInvalidValue},
		{"clone into a sealed enclave", api.OSRequest(api.CallCloneEnclave, sealed, f.metaPage(8), f.metaPage(9), 0), api.ErrInvalidState},
		{"release unknown snapshot", api.OSRequest(api.CallReleaseSnapshot, 0xBAD), api.ErrInvalidValue},
		{"release snapshot id all-ones", api.OSRequest(api.CallReleaseSnapshot, huge), api.ErrInvalidValue},
		{"ring id outside metadata region", api.OSRequest(api.CallRingCreate, 0x1000, 0, 0, 4), api.ErrInvalidValue},
		{"ring id all-ones", api.OSRequest(api.CallRingCreate, huge, 0, 0, 4), api.ErrInvalidValue},
		{"ring capacity all-ones", api.OSRequest(api.CallRingCreate, f.metaPage(8), 0, 0, huge), api.ErrInvalidValue},
		{"ring producer junk eid", api.OSRequest(api.CallRingCreate, f.metaPage(8), 0xBAD, 0, 4), api.ErrInvalidValue},
		{"send to unknown ring", api.OSRequest(api.CallRingSend, 0xBAD, 0x1000, 1), api.ErrInvalidValue},
		{"send count all-ones", api.OSRequest(api.CallRingSend, f.metaPage(8), 0x1000, huge), api.ErrInvalidValue},
		{"recv from unknown ring", api.OSRequest(api.CallRingRecv, 0xBAD, 0x1000, 1), api.ErrInvalidValue},
		{"wake unknown ring", api.OSRequest(api.CallRingWake, 0xBAD), api.ErrInvalidValue},
		{"destroy unknown ring", api.OSRequest(api.CallRingDestroy, huge), api.ErrInvalidValue},
		{"send from SM memory", api.OSRequest(api.CallRingSend, ring, f.meta, 1), api.ErrInvalidValue},
		{"recv count 0", api.OSRequest(api.CallRingRecv, ring, stage, 0), api.ErrInvalidValue},
		{"grant id outside metadata region", api.OSRequest(api.CallBulkGrant, 0x1000, buf, 1, api.DomainOS, api.DomainOS), api.ErrInvalidValue},
		{"grant of 0 pages", api.OSRequest(api.CallBulkGrant, f.metaPage(8), buf, 0, api.DomainOS, api.DomainOS), api.ErrInvalidValue},
		{"grant of all-ones pages", api.OSRequest(api.CallBulkGrant, f.metaPage(8), buf, huge, api.DomainOS, api.DomainOS), api.ErrInvalidValue},
		{"grant unaligned base", api.OSRequest(api.CallBulkGrant, f.metaPage(8), buf+8, 1, api.DomainOS, api.DomainOS), api.ErrInvalidValue},
		{"grant SM-owned base", api.OSRequest(api.CallBulkGrant, f.metaPage(8), f.meta, 1, api.DomainOS, api.DomainOS), api.ErrInvalidValue},
		{"grant junk endpoint", api.OSRequest(api.CallBulkGrant, f.metaPage(8), buf, 1, 0xBAD, api.DomainOS), api.ErrInvalidValue},
		{"revoke unknown grant", api.OSRequest(api.CallBulkRevoke, 0xBAD), api.ErrInvalidValue},
		{"bulk send on unknown grant", api.OSRequest(api.CallBulkSend, ring, stage, 1, 0xBAD), api.ErrInvalidValue},
		{"bulk recv on unknown grant", api.OSRequest(api.CallBulkRecv, ring, stage, 1, 0xBAD), api.ErrInvalidValue},
		{"bulk send count all-ones", api.OSRequest(api.CallBulkSend, ring, stage, huge, grant), api.ErrInvalidValue},
		{"bulk recv count all-ones", api.OSRequest(api.CallBulkRecv, ring, stage, huge, grant), api.ErrInvalidValue},
		// An empty OS message reads nothing, so its source address goes
		// unchecked — even one past the end of memory — and the refusal
		// comes from the mailbox.
		{"empty mail from SM address", api.OSRequest(api.CallSendMail, sealed, f.meta, 0), api.ErrInvalidState},
		{"empty mail from all-ones address", api.OSRequest(api.CallSendMail, sealed, huge, 0), api.ErrInvalidState},
	}
	for _, c := range cases {
		if resp := f.mon.Dispatch(c.req); resp.Status != c.want {
			t.Errorf("%s: %v, want %v", c.name, resp.Status, c.want)
		}
	}
	if !snapshot(f.mon).equal(before) {
		t.Fatal("an out-of-range argument mutated monitor state")
	}
}

// TestDispatchBatchSequentialEquivalence drives a full enclave build —
// once as individual Dispatch calls, once as one batch — and requires
// identical statuses and identical measurements, including across a
// deliberately failing element (the batch must not stop at it).
func TestDispatchBatchSequentialEquivalence(t *testing.T) {
	f := newFixture(t)
	build := func(slot int, region int, viaBatch bool) ([2]uint64, []api.Error) {
		eid := f.metaPage(slot)
		src := f.m.DRAM.Base(1) // OS-owned source page
		reqs := []api.Request{
			api.OSRequest(api.CallCreateEnclave, eid, testEvBase, testEvMask),
			api.OSRequest(api.CallGrantRegion, uint64(region), eid),
			api.OSRequest(api.CallAllocPageTable, eid, 0, 2),
			api.OSRequest(api.CallAllocPageTable, eid, testEvBase, 1),
			api.OSRequest(api.CallAllocPageTable, eid, testEvBase, 0),
			api.OSRequest(api.CallLoadPage, eid, testEvBase, src, 1 /* pt.R */),
			api.OSRequest(api.CallLoadPage, eid, testEvBase, src, 1), // duplicate VA: must fail
			api.OSRequest(api.CallLoadThread, eid, f.metaPage(slot+1), testEvBase, testEvBase+0x800),
			api.OSRequest(api.CallInitEnclave, eid),
			api.OSRequest(api.CallEnclaveStatus, eid, 0),
		}
		var statuses []api.Error
		var resps []api.Response
		if viaBatch {
			resps = f.mon.DispatchBatch(reqs)
		} else {
			for _, r := range reqs {
				resps = append(resps, f.mon.Dispatch(r))
			}
		}
		for _, r := range resps {
			statuses = append(statuses, r.Status)
		}
		_, meas, found := f.enclaveInfo(eid)
		if !found {
			t.Fatal("enclave missing after build")
		}
		var sig [2]uint64
		for i := 0; i < 8; i++ {
			sig[i/4] ^= uint64(meas[i]) << (8 * uint(i%4))
		}
		return sig, statuses
	}
	sigSeq, stSeq := build(0, 10, false)
	sigBat, stBat := build(2, 11, true)
	if len(stSeq) != len(stBat) {
		t.Fatalf("status count %d vs %d", len(stSeq), len(stBat))
	}
	for i := range stSeq {
		if stSeq[i] != stBat[i] {
			t.Fatalf("element %d: sequential %v, batched %v", i, stSeq[i], stBat[i])
		}
	}
	if stSeq[6] != api.ErrInvalidValue {
		t.Fatalf("duplicate load should fail in both paths: %v", stSeq[6])
	}
	if sigSeq != sigBat {
		t.Fatal("batched build measured differently from sequential build")
	}
}

// TestDispatchBatchContentionCut locks an enclave from "another hart"
// and requires the batch to stop at the first element targeting it,
// reporting ErrRetry for the unexecuted tail without touching state.
func TestDispatchBatchContentionCut(t *testing.T) {
	f := newFixture(t)
	eid := f.createLoading(t, 0, 10)
	f.mon.objMu.RLock()
	e := f.mon.enclaves[eid]
	f.mon.objMu.RUnlock()
	e.mu.Lock() // the contending transaction
	defer e.mu.Unlock()

	resps := f.mon.DispatchBatch([]api.Request{
		api.OSRequest(api.CallRegionInfo, 10), // independent: must execute
		api.OSRequest(api.CallAllocPageTable, eid, 0, 2),
		api.OSRequest(api.CallInitEnclave, eid),
	})
	if resps[0].Status != api.OK {
		t.Fatalf("independent prefix element: %v", resps[0].Status)
	}
	if resps[1].Status != api.ErrRetry || resps[2].Status != api.ErrRetry {
		t.Fatalf("contended tail: %v, %v — want ErrRetry, ErrRetry",
			resps[1].Status, resps[2].Status)
	}
}

// FuzzDispatch throws arbitrary requests at the monitor: nothing may
// panic, and any request claiming a non-OS caller must be refused
// without reaching a handler.
func FuzzDispatch(f *testing.F) {
	fx := newFixture(f)
	eid := fx.metaPage(0)
	if st := fx.CreateEnclave(eid, testEvBase, testEvMask); st != api.OK {
		f.Fatalf("fixture enclave: %v", st)
	}
	f.Add(uint64(0), uint64(0x20), eid, testEvBase, testEvMask, uint64(0))
	f.Add(eid, uint64(0x0F), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(0), uint64(0x2D), uint64(1)<<63, uint64(0), uint64(0), uint64(0))
	f.Add(uint64(1), uint64(0x1F), uint64(0), uint64(0), uint64(0), uint64(0))
	f.Add(uint64(0), uint64(0x30), eid, eid+0x1000, uint64(0), uint64(0))
	f.Add(uint64(0), uint64(0x31), eid, eid+0x1000, eid+0x2000, uint64(0))
	f.Add(uint64(0), uint64(0x32), eid+0x1000, uint64(0), uint64(0), uint64(0))
	f.Add(uint64(0), uint64(0x40), eid+0x1000, uint64(0), uint64(0), uint64(8))
	f.Add(uint64(0), uint64(0x41), eid+0x1000, uint64(0x1000), uint64(2), uint64(0))
	f.Add(uint64(0), uint64(0x42), eid+0x1000, uint64(0x1000), uint64(2), uint64(0))
	f.Add(uint64(0), uint64(0x44), eid+0x1000, uint64(0), uint64(0), uint64(0))
	f.Add(uint64(0), uint64(0x45), eid+0x1000, uint64(0), uint64(0), uint64(0))
	f.Fuzz(func(t *testing.T, caller, call, a0, a1, a2, a3 uint64) {
		resp := fx.mon.Dispatch(api.Request{
			Caller: caller,
			Call:   api.Call(call),
			Args:   [6]uint64{a0, a1, a2, a3},
		})
		if caller != api.DomainOS &&
			resp.Status != api.ErrUnauthorized && resp.Status != api.ErrNotSupported {
			t.Fatalf("non-OS caller %#x got %v for call %#x", caller, resp.Status, call)
		}
	})
}
