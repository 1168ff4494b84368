package sm

import (
	"bytes"
	"testing"

	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
	"sanctorum/internal/sm/api"
)

// buildTemplate loads a two-page enclave — one R|X code page with
// recognizable contents, one R|W data page — with one thread, and
// seals it. Returns the eid (thread at slot+1).
func (f *fixture) buildTemplate(t testing.TB, slot, region int) uint64 {
	t.Helper()
	eid := f.createLoading(t, slot, region)
	for _, alloc := range [][2]uint64{{0, 2}, {testEvBase, 1}, {testEvBase, 0}} {
		if st := f.AllocatePageTable(eid, alloc[0], int(alloc[1])); st != api.OK {
			t.Fatalf("alloc table: %v", st)
		}
	}
	f.m.Mem.WriteBytes(0x1000, bytes.Repeat([]byte{0xC0}, 64))
	if st := f.LoadPage(eid, testEvBase, 0x1000, pt.R|pt.X); st != api.OK {
		t.Fatalf("load code: %v", st)
	}
	f.m.Mem.WriteBytes(0x2000, bytes.Repeat([]byte{0xDA}, 64))
	if st := f.LoadPage(eid, testEvBase+0x1000, 0x2000, pt.R|pt.W); st != api.OK {
		t.Fatalf("load data: %v", st)
	}
	if st := f.LoadThread(eid, f.metaPage(slot+1), testEvBase, testEvBase+0x800); st != api.OK {
		t.Fatalf("load thread: %v", st)
	}
	if st := f.InitEnclave(eid); st != api.OK {
		t.Fatalf("init: %v", st)
	}
	return eid
}

// prepClone creates an untouched Loading enclave with the template's
// evrange and one granted region — the state clone_enclave requires.
func (f *fixture) prepClone(t testing.TB, slot, region int) uint64 {
	t.Helper()
	eid := f.metaPage(slot)
	if st := f.CreateEnclave(eid, testEvBase, testEvMask); st != api.OK {
		t.Fatalf("create clone shell: %v", st)
	}
	if st := f.GrantRegion(region, eid); st != api.OK {
		t.Fatalf("grant clone region: %v", st)
	}
	return eid
}

func TestSnapshotCloneLifecycle(t *testing.T) {
	f := newFixture(t)
	if refs := f.m.Mem.TotalRefs(); refs != 0 {
		t.Fatalf("baseline refs = %d", refs)
	}
	tmpl := f.buildTemplate(t, 0, 10)
	snapID := f.metaPage(2)
	if st := f.SnapshotEnclave(tmpl, snapID); st != api.OK {
		t.Fatalf("snapshot: %v", st)
	}
	// Two private pages frozen: the snapshot holds one reference each.
	if refs := f.m.Mem.TotalRefs(); refs != 2 {
		t.Fatalf("refs after snapshot = %d, want 2", refs)
	}
	// A second snapshot of the same template is refused.
	if st := f.SnapshotEnclave(tmpl, f.metaPage(3)); st != api.ErrInvalidState {
		t.Fatalf("double snapshot: %v", st)
	}
	// The template cannot be deleted or its region blocked while the
	// snapshot lives.
	if st := f.DeleteEnclave(tmpl); st != api.ErrInvalidState {
		t.Fatalf("delete frozen template: %v", st)
	}
	if st := f.encCall(f.enclave(tmpl), api.CallBlockRegion, 10); st != api.ErrInvalidState {
		t.Fatalf("block frozen template region: %v", st)
	}

	clone := f.prepClone(t, 4, 11)
	tidBase := f.metaPage(5)
	if st := f.CloneEnclave(clone, snapID, tidBase, 0); st != api.OK {
		t.Fatalf("clone: %v", st)
	}
	state, meas, found := f.enclaveInfo(clone)
	if !found || state != EnclaveInitialized {
		t.Fatalf("clone state: %v (found %v)", state, found)
	}
	_, tmplMeas, _ := f.enclaveInfo(tmpl)
	if meas != tmplMeas {
		t.Fatal("clone did not inherit the template measurement")
	}
	// One thread recreated, assigned to the clone.
	th, _ := get[*Thread](f.mon, tidBase)
	if th == nil || th.State != ThreadAssigned || th.Owner != clone {
		t.Fatalf("clone thread: %+v", th)
	}
	if th.EntryPC != testEvBase || th.EntrySP != testEvBase+0x800 {
		t.Fatalf("clone thread spec: pc=%#x sp=%#x", th.EntryPC, th.EntrySP)
	}
	// The clone added one alias reference per frozen page.
	if refs := f.m.Mem.TotalRefs(); refs != 4 {
		t.Fatalf("refs after clone = %d, want 4", refs)
	}
	// The clone reads the template's pages through its own tables.
	ce := f.enclave(clone)
	got := make([]byte, 4)
	if ok := f.mon.readEnclave(ce, testEvBase+0x1000, got); !ok || !bytes.Equal(got, []byte{0xDA, 0xDA, 0xDA, 0xDA}) {
		t.Fatalf("clone read of aliased data page: %v %x", ok, got)
	}
	// Releasing the snapshot with a live clone must fail.
	if st := f.ReleaseSnapshot(snapID); st != api.ErrInvalidState {
		t.Fatalf("release with live clone: %v", st)
	}
	// Cleaning a region holding referenced pages must fail even if
	// forced into the blocked state.
	f.mon.regions[10].state = RegionBlocked
	if st := f.CleanRegion(10); st != api.ErrInvalidState {
		t.Fatalf("clean referenced region: %v", st)
	}
	f.mon.regions[10].state = RegionOwned

	// Delete the clone: its references die, the snapshot's remain.
	if st := f.DeleteEnclave(clone); st != api.OK {
		t.Fatalf("delete clone: %v", st)
	}
	if st := f.DeleteThread(tidBase); st != api.OK {
		t.Fatalf("delete clone thread: %v", st)
	}
	if refs := f.m.Mem.TotalRefs(); refs != 2 {
		t.Fatalf("refs after clone delete = %d, want 2", refs)
	}
	// Release: refs to baseline, template thaws and can be deleted.
	if st := f.ReleaseSnapshot(snapID); st != api.OK {
		t.Fatalf("release: %v", st)
	}
	if refs := f.m.Mem.TotalRefs(); refs != 0 {
		t.Fatalf("refs after release = %d, want 0", refs)
	}
	if st := f.ReleaseSnapshot(snapID); st != api.ErrInvalidValue {
		t.Fatalf("double release: %v", st)
	}
	if st := f.DeleteEnclave(tmpl); st != api.OK {
		t.Fatalf("delete thawed template: %v", st)
	}
	// Both regions clean back to available.
	for _, r := range []int{10, 11} {
		if st := f.CleanRegion(r); st != api.OK {
			t.Fatalf("clean region %d: %v", r, st)
		}
	}
}

func TestCloneValidation(t *testing.T) {
	f := newFixture(t)
	tmpl := f.buildTemplate(t, 0, 10)
	snapID := f.metaPage(2)
	if st := f.SnapshotEnclave(tmpl, snapID); st != api.OK {
		t.Fatalf("snapshot: %v", st)
	}

	// Mismatched evrange.
	bad := f.metaPage(4)
	if st := f.CreateEnclave(bad, testEvBase+(1<<30), testEvMask); st != api.OK {
		t.Fatalf("create: %v", st)
	}
	if st := f.GrantRegion(11, bad); st != api.OK {
		t.Fatalf("grant: %v", st)
	}
	if st := f.CloneEnclave(bad, snapID, f.metaPage(5), 0); st != api.ErrInvalidValue {
		t.Fatalf("evrange mismatch: %v", st)
	}
	if st := f.DeleteEnclave(bad); st != api.OK {
		t.Fatalf("delete: %v", st)
	}
	if st := f.CleanRegion(11); st != api.OK {
		t.Fatalf("clean: %v", st)
	}

	// No regions granted: no memory for the clone's page tables.
	poor := f.metaPage(4)
	if st := f.CreateEnclave(poor, testEvBase, testEvMask); st != api.OK {
		t.Fatalf("create poor: %v", st)
	}
	if st := f.CloneEnclave(poor, snapID, f.metaPage(5), 0); st != api.ErrNoResources {
		t.Fatalf("clone with no regions: %v", st)
	}

	// An enclave that already allocated tables cannot be a clone shell.
	touched := f.createLoading(t, 6, 12)
	if st := f.AllocatePageTable(touched, 0, 2); st != api.OK {
		t.Fatalf("alloc: %v", st)
	}
	if st := f.CloneEnclave(touched, snapID, f.metaPage(7), 0); st != api.ErrInvalidState {
		t.Fatalf("clone into touched enclave: %v", st)
	}

	// tid base colliding with an allocated metadata page.
	shell := f.prepClone(t, 8, 13)
	if st := f.CloneEnclave(shell, snapID, tmpl, 0); st != api.ErrInvalidValue {
		t.Fatalf("tid collides with template eid: %v", st)
	}
	if st := f.CloneEnclave(shell, snapID, f.metaPage(9)+4, 0); st != api.ErrInvalidValue {
		t.Fatalf("unaligned tid base: %v", st)
	}
	// Shared-window override on a template with no shared mappings.
	if st := f.CloneEnclave(shell, snapID, f.metaPage(9), 0x3000); st != api.ErrInvalidValue {
		t.Fatalf("shared override without shared window: %v", st)
	}
	// A valid clone still works after all the refusals, and a clone
	// cannot itself be snapshotted.
	if st := f.CloneEnclave(shell, snapID, f.metaPage(9), 0); st != api.OK {
		t.Fatalf("valid clone: %v", st)
	}
	if st := f.SnapshotEnclave(shell, f.metaPage(11)); st != api.ErrInvalidState {
		t.Fatalf("snapshot of a clone: %v", st)
	}
}

// TestCOWFaultCopiesPage drives the monitor's copy-then-retry protocol
// directly: a store page fault on a clone's aliased data page must
// copy the frozen page into the clone's own memory, restore W on the
// new PTE, drop the alias reference, and leave the template page
// untouched.
func TestCOWFaultCopiesPage(t *testing.T) {
	f := newFixture(t)
	tmpl := f.buildTemplate(t, 0, 10)
	snapID := f.metaPage(2)
	if st := f.SnapshotEnclave(tmpl, snapID); st != api.OK {
		t.Fatalf("snapshot: %v", st)
	}
	clone := f.prepClone(t, 4, 11)
	if st := f.CloneEnclave(clone, snapID, f.metaPage(5), 0); st != api.OK {
		t.Fatalf("clone: %v", st)
	}
	ce := f.enclave(clone)

	dataVA := testEvBase + 0x1000
	// The physical backstop refuses in-place writes to the frozen page.
	pgBefore, _ := f.mon.enclaveVAtoPA(ce, dataVA, pt.Load)
	if err := f.m.Mem.Store(pgBefore, 8, 0xBAD); err == nil {
		t.Fatal("physical store to a frozen page succeeded")
	}

	refsBefore := f.m.Mem.TotalRefs()
	tr := &isa.Trap{Cause: isa.CauseStorePageFault, PC: testEvBase, Value: dataVA + 0x18}
	disp, handled := f.mon.cowFault(f.m.Cores[0], slotView{owner: clone}, tr)
	if !handled || disp != 0 /* machine.DispResume */ {
		t.Fatalf("cowFault: handled=%v disp=%v", handled, disp)
	}
	if refs := f.m.Mem.TotalRefs(); refs != refsBefore-1 {
		t.Fatalf("refs after COW copy = %d, want %d", refs, refsBefore-1)
	}
	// The clone's translation moved to a new, writable page with the
	// template contents; the template still maps the frozen page.
	pgAfter, ok := f.mon.enclaveVAtoPA(ce, dataVA, pt.Store)
	if !ok {
		t.Fatal("clone data page not writable after COW copy")
	}
	if pgAfter == pgBefore {
		t.Fatal("COW fault did not move the clone to a private copy")
	}
	buf := make([]byte, 4)
	f.m.Mem.ReadBytes(pgAfter, buf)
	if !bytes.Equal(buf, []byte{0xDA, 0xDA, 0xDA, 0xDA}) {
		t.Fatalf("private copy contents %x", buf)
	}
	// Writes to the private copy succeed and do not reach the frozen
	// template page.
	if err := f.m.Mem.Store(pgAfter, 8, 0x1122334455667788); err != nil {
		t.Fatalf("store to private copy: %v", err)
	}
	f.m.Mem.ReadBytes(pgBefore, buf)
	if !bytes.Equal(buf, []byte{0xDA, 0xDA, 0xDA, 0xDA}) {
		t.Fatal("write to the private copy leaked into the frozen page")
	}
	// A second fault on the same VA is no longer a COW fault: it takes
	// the spurious path (translation now writable → stale-TLB resume)
	// and the clone's cow map no longer lists the page.
	if _, handled := f.mon.cowFault(f.m.Cores[0], slotView{owner: clone}, tr); !handled {
		t.Fatal("spurious refault after resolution not resumed")
	}
	if _, still := ce.cow[dataVA]; still {
		t.Fatal("resolved page still in the clone's cow map")
	}
}

// TestMonitorWriteResolvesCOW checks that the monitor's own copy-in
// paths (writeEnclave: mail delivery, get_field, crypto-service
// outputs) trigger the same copy-on-write resolution a guest store
// would: a clone receiving monitor-written data into a never-written
// data page behaves exactly like its directly built template, and the
// frozen page stays intact.
func TestMonitorWriteResolvesCOW(t *testing.T) {
	f := newFixture(t)
	tmpl := f.buildTemplate(t, 0, 10)
	snapID := f.metaPage(2)
	if st := f.SnapshotEnclave(tmpl, snapID); st != api.OK {
		t.Fatalf("snapshot: %v", st)
	}
	clone := f.prepClone(t, 4, 11)
	if st := f.CloneEnclave(clone, snapID, f.metaPage(5), 0); st != api.OK {
		t.Fatalf("clone: %v", st)
	}
	ce := f.enclave(clone)

	dataVA := testEvBase + 0x1000
	frozenPA, _ := f.mon.enclaveVAtoPA(ce, dataVA, pt.Load)
	refsBefore := f.m.Mem.TotalRefs()
	if ok := f.mon.writeEnclave(ce, dataVA+8, []byte{1, 2, 3}); !ok {
		t.Fatal("monitor write into a COW alias failed")
	}
	if refs := f.m.Mem.TotalRefs(); refs != refsBefore-1 {
		t.Fatalf("refs after monitor-triggered COW copy = %d, want %d", refs, refsBefore-1)
	}
	newPA, ok := f.mon.enclaveVAtoPA(ce, dataVA, pt.Store)
	if !ok || newPA == frozenPA {
		t.Fatalf("clone still on the frozen page after monitor write (ok=%v)", ok)
	}
	got := make([]byte, 4)
	f.m.Mem.ReadBytes(newPA+8, got)
	if !bytes.Equal(got, []byte{1, 2, 3, 0xDA}) {
		t.Fatalf("private copy after monitor write: %x", got)
	}
	buf := make([]byte, 4)
	f.m.Mem.ReadBytes(frozenPA+8, buf)
	if !bytes.Equal(buf, []byte{0xDA, 0xDA, 0xDA, 0xDA}) {
		t.Fatal("monitor write leaked into the frozen page")
	}
}

// TestTemplateCOWDoesNotUnderflowRefs reproduces the review finding:
// a frozen template is allowed to run and copy-on-write its own
// pages; that resolution must not drop the snapshot's reference, and
// releasing the snapshot afterwards must neither panic nor leak.
func TestTemplateCOWDoesNotUnderflowRefs(t *testing.T) {
	f := newFixture(t)
	tmpl := f.buildTemplate(t, 0, 10)
	snapID := f.metaPage(2)
	if st := f.SnapshotEnclave(tmpl, snapID); st != api.OK {
		t.Fatalf("snapshot: %v", st)
	}
	te := f.enclave(tmpl)

	dataVA := testEvBase + 0x1000
	refsBefore := f.m.Mem.TotalRefs()
	tr := &isa.Trap{Cause: isa.CauseStorePageFault, PC: testEvBase, Value: dataVA}
	if _, handled := f.mon.cowFault(f.m.Cores[0], slotView{owner: tmpl}, tr); !handled {
		t.Fatal("template COW fault not handled")
	}
	// The snapshot's reference survives the template's own copy.
	if refs := f.m.Mem.TotalRefs(); refs != refsBefore {
		t.Fatalf("template COW copy moved refs: %d, want %d", refs, refsBefore)
	}
	if _, ok := f.mon.enclaveVAtoPA(te, dataVA, pt.Store); !ok {
		t.Fatal("template data page not writable after its COW copy")
	}
	// Release must drop exactly the snapshot's references — to zero,
	// without underflow — even though the template diverged.
	if st := f.ReleaseSnapshot(snapID); st != api.OK {
		t.Fatalf("release after template divergence: %v", st)
	}
	if refs := f.m.Mem.TotalRefs(); refs != 0 {
		t.Fatalf("refs after release = %d, want 0", refs)
	}
	if st := f.DeleteEnclave(tmpl); st != api.OK {
		t.Fatalf("delete template: %v", st)
	}
}

// TestFieldEnclaveIdentity checks the attestation-evidence rule: a
// clone shares the template measurement but reports its own enclave ID
// with origin=1.
func TestFieldEnclaveIdentity(t *testing.T) {
	f := newFixture(t)
	tmpl := f.buildTemplate(t, 0, 10)
	snapID := f.metaPage(2)
	if st := f.SnapshotEnclave(tmpl, snapID); st != api.OK {
		t.Fatalf("snapshot: %v", st)
	}
	clone := f.prepClone(t, 4, 11)
	if st := f.CloneEnclave(clone, snapID, f.metaPage(5), 0); st != api.OK {
		t.Fatalf("clone: %v", st)
	}
	te, ce := f.enclave(tmpl), f.enclave(clone)

	tID, st := f.mon.fieldBytes(api.FieldEnclaveIdentity, te)
	if st != api.OK || len(tID) != 48 {
		t.Fatalf("template identity: %v (%d bytes)", st, len(tID))
	}
	cID, st := f.mon.fieldBytes(api.FieldEnclaveIdentity, ce)
	if st != api.OK || len(cID) != 48 {
		t.Fatalf("clone identity: %v (%d bytes)", st, len(cID))
	}
	if !bytes.Equal(tID[:32], cID[:32]) {
		t.Fatal("identity measurements differ between template and clone")
	}
	if bytes.Equal(tID[32:40], cID[32:40]) {
		t.Fatal("identity eids identical between template and clone")
	}
	if tID[40] != 0 {
		t.Fatal("template identity claims clone origin")
	}
	if cID[40] != 1 {
		t.Fatal("clone identity does not declare its snapshot origin")
	}
	// The OS cannot read the identity field.
	if _, st := f.mon.fieldBytes(api.FieldEnclaveIdentity, nil); st != api.ErrUnauthorized {
		t.Fatalf("OS read of enclave identity: %v", st)
	}
}
