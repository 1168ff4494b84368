package sm

import (
	"strings"
	"testing"

	"sanctorum/internal/sm/api"
)

// TestCheckInvariantsThroughLifecycle runs the full invariant suite at
// every station of a representative lifecycle — fresh boot, sealed
// template, live snapshot with a clone, rings, a grant, a blocked
// region — so
// the checker's happy paths are exercised by the monitor's own test
// package, not only by the external model checker.
func TestCheckInvariantsThroughLifecycle(t *testing.T) {
	f := newFixture(t)
	check := func(when string) {
		t.Helper()
		if err := f.mon.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check("fresh boot")

	tmpl := f.buildTemplate(t, 0, 10)
	check("sealed template")

	snapID := f.metaPage(2)
	if st := f.SnapshotEnclave(tmpl, snapID); st != api.OK {
		t.Fatalf("snapshot: %v", st)
	}
	clone := f.prepClone(t, 4, 11)
	if st := f.CloneEnclave(clone, snapID, f.metaPage(5), 0); st != api.OK {
		t.Fatalf("clone: %v", st)
	}
	check("snapshot with live clone")

	ring, ring2 := f.metaPage(6), f.metaPage(7)
	if st := f.call(api.CallRingCreate, ring, api.DomainOS, clone, 8); st != api.OK {
		t.Fatalf("ring create: %v", st)
	}
	if st := f.call(api.CallRingCreate, ring2, tmpl, clone, 8); st != api.OK {
		t.Fatalf("second ring create: %v", st)
	}
	check("rings attached")

	grant := f.metaPage(8)
	if st := f.call(api.CallBulkGrant, grant, f.m.DRAM.Base(2), 2, api.DomainOS, clone); st != api.OK {
		t.Fatalf("bulk grant: %v", st)
	}
	check("grant live")
	if st := f.call(api.CallRingDestroy, ring); st != api.OK {
		t.Fatalf("ring destroy: %v", st)
	}
	check("first ring destroyed")
	if st := f.call(api.CallBulkRevoke, grant); st != api.OK {
		t.Fatalf("bulk revoke: %v", st)
	}

	if st := f.BlockRegion(7); st != api.OK {
		t.Fatalf("block: %v", st)
	}
	check("blocked region")
	if st := f.CleanRegion(7); st != api.OK {
		t.Fatalf("clean: %v", st)
	}

	if st := f.DeleteEnclave(clone); st != api.ErrInvalidState {
		t.Fatalf("delete of a linked clone: %v, want invalid_state", st)
	}
	if st := f.call(api.CallRingDestroy, ring2); st != api.OK {
		t.Fatalf("ring destroy: %v", st)
	}
	if st := f.DeleteEnclave(clone); st != api.OK {
		t.Fatalf("delete clone: %v", st)
	}
	if st := f.ReleaseSnapshot(snapID); st != api.OK {
		t.Fatalf("release snapshot: %v", st)
	}
	if st := f.DeleteEnclave(tmpl); st != api.OK {
		t.Fatalf("delete template: %v", st)
	}
	check("after teardown")
}

// TestCheckInvariantsDetectsCorruption plants targeted corruptions
// directly in the metadata — the kind a lifecycle bug would leave
// behind — and requires the checker to name each one.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	f := newFixture(t)

	// A blocked region whose owner did not revert to the OS: the stale
	// dead-eid bug the model checker originally surfaced.
	if st := f.BlockRegion(5); st != api.OK {
		t.Fatalf("block: %v", st)
	}
	f.mon.regions[5].owner = 0xDEAD0000
	err := f.mon.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "must revert to OS") {
		t.Fatalf("stale blocked owner not caught: %v", err)
	}
	f.mon.regions[5].owner = api.DomainOS
	if st := f.CleanRegion(5); st != api.OK {
		t.Fatalf("clean: %v", st)
	}

	// An object registered on a page outside SM memory: a forged id.
	f.mon.objects[0xBAD000] = &Thread{ID: 0xBAD000}
	err = f.mon.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "not in SM-owned memory") {
		t.Fatalf("object outside SM memory not caught: %v", err)
	}
	delete(f.mon.objects, 0xBAD000)

	// A grant whose in-flight count disagrees with the descriptors its
	// rings hold: a revoke would be refused forever, or allowed early.
	ring, grant := f.metaPage(12), f.metaPage(13)
	if st := f.call(api.CallRingCreate, ring, api.DomainOS, api.DomainOS, 8); st != api.OK {
		t.Fatalf("ring create: %v", st)
	}
	if st := f.call(api.CallBulkGrant, grant, f.m.DRAM.Base(2), 1, api.DomainOS, api.DomainOS); st != api.OK {
		t.Fatalf("bulk grant: %v", st)
	}
	g, _ := get[*Grant](f.mon, grant)
	g.inflight.Add(1)
	err = f.mon.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("skewed in-flight count not caught: %v", err)
	}
	g.inflight.Add(-1)

	// An enclave whose links lose a ring that names it (its delete would
	// no longer be refused), then two enclaves listing their two shared
	// rings in opposite orders.
	a, b := f.createLoading(t, 0, 20), f.createLoading(t, 1, 21)
	r1, r2 := f.metaPage(2), f.metaPage(3)
	for _, r := range []uint64{r1, r2} {
		if st := f.call(api.CallRingCreate, r, a, b, 8); st != api.OK {
			t.Fatalf("ring create: %v", st)
		}
	}
	ea, eb := f.enclave(a), f.enclave(b)
	links := ea.links
	ea.links = links[:1]
	err = f.mon.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "does not link it") {
		t.Fatalf("dropped link not caught: %v", err)
	}
	ea.links = []link{links[1], links[0]}
	err = f.mon.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "different orders") {
		t.Fatalf("reordered links not caught: %v", err)
	}
	ea.links = links
	if got := f.mon.CaptureState().Enclaves[b].Links; len(got) != 2 || got[0] != r1 || got[1] != r2 || len(eb.links) != 2 {
		t.Fatalf("consumer links %#x, want [%#x %#x]", got, r1, r2)
	}

	// An enclave that lists one of its threads twice: a map could not
	// hold it twice, a list can, and a delete would then fail to lock
	// the thread a second time and retry forever.
	f.loadMinimal(t, a, 4)
	ea.Threads = append(ea.Threads, ea.Threads[0])
	err = f.mon.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("repeated thread not caught: %v", err)
	}
	ea.Threads = ea.Threads[:1]

	if err := f.mon.CheckInvariants(); err != nil {
		t.Fatalf("state not restored: %v", err)
	}
}

// TestSnapshotDiffNamesChangedSections pins the failure-message
// helper: equal captures report no difference, and a region grant
// shows up as a Regions-section diff.
func TestSnapshotDiffNamesChangedSections(t *testing.T) {
	f := newFixture(t)
	a := f.mon.CaptureState()
	if d := a.Diff(f.mon.CaptureState()); d != "no difference" {
		t.Fatalf("identical captures diff: %s", d)
	}
	if st := f.GrantRegion(9, api.DomainSM); st != api.OK {
		t.Fatalf("grant: %v", st)
	}
	b := f.mon.CaptureState()
	if a.Equal(b) {
		t.Fatal("captures equal across a region grant")
	}
	if d := a.Diff(b); !strings.Contains(d, "Regions") {
		t.Fatalf("diff does not name the Regions section: %s", d)
	}
}

// TestLockFaultHookForcesRetry exercises the §V-A fault hook from the
// monitor's own package: a hook refusing region-lock acquisitions
// turns a grant into ErrRetry with state untouched, removing the hook
// restores service, and every lock class prints a distinct name.
func TestLockFaultHookForcesRetry(t *testing.T) {
	f := newFixture(t)
	before := snapshot(f.mon)
	var seen []LockPoint
	f.mon.SetLockFaultHook(func(lp LockPoint) bool {
		seen = append(seen, lp)
		return lp.Kind == LockRegion
	})
	if st := f.GrantRegion(5, api.DomainSM); st != api.ErrRetry {
		t.Fatalf("grant under fault: %v, want ErrRetry", st)
	}
	if len(seen) == 0 || seen[len(seen)-1].Kind != LockRegion || seen[len(seen)-1].ID != 5 {
		t.Fatalf("hook observed %v, want a LockRegion/5 acquisition", seen)
	}
	if !snapshot(f.mon).equal(before) {
		t.Fatal("refused grant mutated state")
	}
	f.mon.SetLockFaultHook(nil)
	if st := f.GrantRegion(5, api.DomainSM); st != api.OK {
		t.Fatalf("grant after hook removed: %v", st)
	}

	kinds := []LockKind{LockEnclave, LockThread, LockSnapshot, LockRing,
		LockGrant, LockRegion, LockCoreSlot, LockCore, LockKind(250)}
	names := map[string]bool{}
	for _, k := range kinds {
		names[k.String()] = true
	}
	if len(names) != len(kinds) || !names["lock-kind-?"] {
		t.Fatalf("lock kinds do not print distinctly: %v", names)
	}
}
