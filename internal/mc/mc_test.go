package mc_test

import (
	"errors"
	"os"
	"strconv"
	"testing"

	"sanctorum/internal/mc"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/smcall"
)

func newWorld(t *testing.T, seed uint64) *mc.World {
	t.Helper()
	w, err := mc.NewWorld(mc.Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestScheduleEnumerator(t *testing.T) {
	if n := len(mc.Schedules([]int{2, 2, 2})); n != 90 {
		t.Fatalf("(2,2,2) interleavings = %d, want 90", n)
	}
	if n := len(mc.Schedules([]int{3, 3, 3})); n != 1680 {
		t.Fatalf("(3,3,3) interleavings = %d, want 1680", n)
	}
	// A random schedule is a permutation of the actor multiset.
	sched := mc.RandomSchedule(mc.NewRNG(7), []int{2, 3, 4})
	counts := map[int]int{}
	for _, ai := range sched {
		counts[ai]++
	}
	if counts[0] != 2 || counts[1] != 3 || counts[2] != 4 {
		t.Fatalf("random schedule %v is not a multiset permutation", sched)
	}
}

// TestExhaustiveLifecycle enumerates every interleaving of the
// three-domain lifecycle script — 90 schedules at the default depth of
// 2 steps per actor, 1680 with MC_DEPTH=3 (the nightly setting) — each
// on a fresh world, checking the full invariant suite after every step
// and tearing each world down to zero.
func TestExhaustiveLifecycle(t *testing.T) {
	depth, want := 2, 90
	if os.Getenv("MC_DEPTH") == "3" {
		depth, want = 3, 1680
	}
	n, err := mc.ExploreExhaustive(mc.Config{}, mc.Lifecycle(depth))
	if err != nil {
		t.Fatal(err)
	}
	if n != want {
		t.Fatalf("explored %d schedules, want %d", n, want)
	}
}

// TestRandomServiceSchedules runs seeded random interleavings of the
// full create/snapshot/clone/ring/park/delete service script with
// fault injection forcing spurious lock failures on roughly one step
// in eight. MC_RANDOM overrides the schedule count.
func TestRandomServiceSchedules(t *testing.T) {
	n := 10_000
	if testing.Short() {
		n = 500
	}
	if v := os.Getenv("MC_RANDOM"); v != "" {
		parsed, err := strconv.Atoi(v)
		if err != nil {
			t.Fatalf("MC_RANDOM=%q: %v", v, err)
		}
		n = parsed
	}
	stats, err := mc.ExploreRandom(mc.Config{}, mc.Service, n, 0xC0FFEE, 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d schedules: %d steps, %d retries, %d forced faults, %d refusals",
		n, stats.Steps, stats.Retries, stats.Faults, stats.Errors)
	if stats.Faults == 0 {
		t.Fatal("fault injection never fired")
	}
	if stats.Retries == 0 {
		t.Fatal("no ErrRetry was ever re-injected — the storm machinery is dead")
	}
}

// TestRetryStormConverges drives a sustained forced-ErrRetry storm
// against a single call and requires the §V-A retry discipline to
// converge the moment the storm lifts — and not an attempt later.
func TestRetryStormConverges(t *testing.T) {
	w := newWorld(t, 1)
	mon := w.Sys.Monitor
	const storm = 500
	remaining := storm
	mon.SetLockFaultHook(func(sm.LockPoint) bool {
		if remaining > 0 {
			remaining--
			return true
		}
		return false
	})
	defer mon.SetLockFaultHook(nil)
	attempts := 0
	st := api.ErrRetry
	for st == api.ErrRetry {
		attempts++
		if attempts > storm+10 {
			t.Fatalf("no convergence after %d attempts", attempts)
		}
		st = w.Call(api.CallRegionInfo, 5)
	}
	if st != api.OK {
		t.Fatalf("storm ended with %v, want OK", st)
	}
	if attempts != storm+1 {
		t.Fatalf("converged after %d attempts, want exactly %d", attempts, storm+1)
	}
	if err := mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSmcallStormStarves drives the production smcall client against
// the real monitor under an unbounded forced-ErrRetry storm: the
// bounded-livelock guard must terminate with a typed StarvationError
// (still matching api.ErrRetry) instead of spinning forever, and the
// refused call must leave the monitor state bit-untouched.
func TestSmcallStormStarves(t *testing.T) {
	w := newWorld(t, 6)
	mon := w.Sys.Monitor
	mon.SetLockFaultHook(func(sm.LockPoint) bool { return true })
	defer mon.SetLockFaultHook(nil)
	before := mon.CaptureState()
	client := smcall.New(mon)
	client.MaxAttempts = 64
	_, _, err := client.RegionInfo(5)
	var se *smcall.StarvationError
	if !errors.As(err, &se) {
		t.Fatalf("storm returned %T (%v), want *smcall.StarvationError", err, err)
	}
	if se.Call != api.CallRegionInfo || se.Attempts != 64 {
		t.Fatalf("starvation verdict %+v, want %v after 64 attempts", se, api.CallRegionInfo)
	}
	if !errors.Is(err, api.ErrRetry) {
		t.Fatal("starvation must still match api.ErrRetry")
	}
	if after := mon.CaptureState(); !before.Equal(after) {
		t.Fatalf("starved call mutated state: %s", before.Diff(after))
	}
	mon.SetLockFaultHook(nil)
	if err := mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// installPreemption arms a one-shot adversarially timed preemption: at
// the first acquisition of the given lock point, race() runs to
// completion — as if another hart's transaction won the race — and the
// victim transaction then proceeds against the mutated state.
func installPreemption(t *testing.T, mon *sm.Monitor, kind sm.LockKind, id uint64, race func()) {
	t.Helper()
	armed := true
	mon.SetLockFaultHook(func(lp sm.LockPoint) bool {
		if !armed || lp.Kind != kind || lp.ID != id {
			return false
		}
		armed = false
		race()
		return false
	})
}

// TestMCRegression_RingCreateVsDeleteEnclave pins the lookup/free
// TOCTOU the explorer's fault hook surfaces: delete_enclave completing
// between ring_create's endpoint fetch and its lock acquisition. The
// dead re-check in the monitor's lookup must refuse the attach; without
// it the ring registers against a freed eid, and a future tenant
// recreated under that id would inherit the ring.
func TestMCRegression_RingCreateVsDeleteEnclave(t *testing.T) {
	w := newWorld(t, 2)
	mon := w.Sys.Monitor
	if st := w.BuildMinimal("victim", 1); st != api.OK {
		t.Fatal(st)
	}
	victim := w.IDs["victim"]
	ring, err := w.MetaPage("ring")
	if err != nil {
		t.Fatal(err)
	}
	installPreemption(t, mon, sm.LockEnclave, victim, func() {
		if st := w.Call(api.CallDeleteEnclave, victim); st != api.OK {
			t.Fatalf("racing delete: %v", st)
		}
	})
	st := w.Call(api.CallRingCreate, ring, api.DomainOS, victim, 8)
	mon.SetLockFaultHook(nil)
	if st == api.OK {
		t.Fatal("ring_create attached a ring to a deleted enclave")
	}
	if err := mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := w.Teardown(); err != nil {
		t.Fatal(err)
	}
}

// TestMCRegression_CloneVsReleaseSnapshot pins the snapshot variant:
// release_snapshot completing between clone_enclave's snapshot fetch
// and its lock. The lookup's dead re-check must refuse the
// clone; without it the clone aliases pages whose references were just
// dropped — an isolation break once the template's regions are
// recycled.
func TestMCRegression_CloneVsReleaseSnapshot(t *testing.T) {
	w := newWorld(t, 3)
	mon := w.Sys.Monitor
	if st := w.BuildMinimal("tmpl", 1); st != api.OK {
		t.Fatal(st)
	}
	tmpl := w.IDs["tmpl"]
	snapID, _ := w.MetaPage("snap")
	cloneEID, _ := w.MetaPage("clone")
	cloneTid, _ := w.MetaPage("clone-tid")
	if st := w.Call(api.CallSnapshotEnclave, tmpl, snapID); st != api.OK {
		t.Fatalf("snapshot: %v", st)
	}
	if st := w.Call(api.CallCreateEnclave, cloneEID, 0x4000000000, ^uint64(1<<30-1)); st != api.OK {
		t.Fatalf("create clone shell: %v", st)
	}
	if st := w.Call(api.CallGrantRegion, 2, cloneEID); st != api.OK {
		t.Fatalf("grant clone region: %v", st)
	}
	installPreemption(t, mon, sm.LockSnapshot, snapID, func() {
		if st := w.Call(api.CallReleaseSnapshot, snapID); st != api.OK {
			t.Fatalf("racing release: %v", st)
		}
	})
	st := w.Call(api.CallCloneEnclave, cloneEID, snapID, cloneTid, 0)
	mon.SetLockFaultHook(nil)
	if st == api.OK {
		t.Fatal("clone_enclave cloned from a released snapshot")
	}
	if err := mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := w.Teardown(); err != nil {
		t.Fatal(err)
	}
}

// TestMCRegression_AssignVsDeleteThread pins the thread variant:
// delete_thread completing between assign_thread's fetch and its lock.
// The lookup's dead re-check must refuse the offer; without it a
// freed thread id ends up Offered to an enclave.
func TestMCRegression_AssignVsDeleteThread(t *testing.T) {
	w := newWorld(t, 4)
	mon := w.Sys.Monitor
	if st := w.BuildMinimal("host", 1); st != api.OK {
		t.Fatal(st)
	}
	host := w.IDs["host"]
	xtid, _ := w.MetaPage("spare")
	if st := w.Call(api.CallCreateThread, xtid); st != api.OK {
		t.Fatalf("create thread: %v", st)
	}
	installPreemption(t, mon, sm.LockThread, xtid, func() {
		if st := w.Call(api.CallDeleteThread, xtid); st != api.OK {
			t.Fatalf("racing delete: %v", st)
		}
	})
	st := w.Call(api.CallAssignThread, host, xtid)
	mon.SetLockFaultHook(nil)
	if st == api.OK {
		t.Fatal("assign_thread offered a deleted thread")
	}
	if err := mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := w.Teardown(); err != nil {
		t.Fatal(err)
	}
}

// TestMCRegression_RevokeVsRevoke pins the grant variant: a racing
// bulk_revoke completing between the victim revoke's grant fetch and
// its lock. The dead re-check in the monitor's lookup must refuse the
// victim; without it the victim revokes the dissolved grant a second
// time — dropping page pins the grant no longer holds and freeing a
// metadata page it no longer names.
func TestMCRegression_RevokeVsRevoke(t *testing.T) {
	w := newWorld(t, 6)
	mon := w.Sys.Monitor
	if st := w.BuildMinimal("peer", 1); st != api.OK {
		t.Fatal(st)
	}
	grant, _ := w.MetaPage("grant")
	buf, err := w.Sys.OS.AllocPagePA()
	if err != nil {
		t.Fatal(err)
	}
	if st := w.Call(api.CallBulkGrant, grant, buf, 1, api.DomainOS, w.IDs["peer"]); st != api.OK {
		t.Fatalf("grant: %v", st)
	}
	installPreemption(t, mon, sm.LockGrant, grant, func() {
		if st := w.Call(api.CallBulkRevoke, grant); st != api.OK {
			t.Fatalf("racing revoke: %v", st)
		}
	})
	st := w.Call(api.CallBulkRevoke, grant)
	mon.SetLockFaultHook(nil)
	if st != api.ErrInvalidValue {
		t.Fatalf("victim revoke of a revoked grant: %v, want ErrInvalidValue", st)
	}
	if err := mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := w.Teardown(); err != nil {
		t.Fatal(err)
	}
}

// TestMCRegression_OrphanedOfferedThread pins the offered-thread leak:
// deleting an enclave that had been offered a thread (not yet
// accepted) must revert the offer, or the thread stays Offered to a
// dead eid — and a future enclave recreated under that id could
// accept_thread a thread its tenant never offered it.
func TestMCRegression_OrphanedOfferedThread(t *testing.T) {
	w := newWorld(t, 5)
	mon := w.Sys.Monitor
	if st := w.BuildMinimal("host", 1); st != api.OK {
		t.Fatal(st)
	}
	host := w.IDs["host"]
	xtid, _ := w.MetaPage("spare")
	if st := w.Call(api.CallCreateThread, xtid); st != api.OK {
		t.Fatalf("create thread: %v", st)
	}
	if st := w.Call(api.CallAssignThread, host, xtid); st != api.OK {
		t.Fatalf("offer: %v", st)
	}
	if st := w.Call(api.CallDeleteEnclave, host); st != api.OK {
		t.Fatalf("delete with pending offer: %v", st)
	}
	if err := mon.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	shot := mon.CaptureState().Threads[xtid]
	if shot.Owner != 0 {
		t.Fatalf("thread still owned by dead enclave %#x", shot.Owner)
	}
	if err := w.Teardown(); err != nil {
		t.Fatal(err)
	}
}
