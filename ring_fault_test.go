// Park/wake edge cases under fault injection (DESIGN.md §10): the
// model checker's adversarial lock hook aimed at the ring layer's
// narrowest windows — wake racing destroy, double park, and parking
// against a concurrently-filling ring. The concurrent case runs under
// -race in CI.
package sanctorum_test

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"sanctorum"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/isa"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
)

// ringWorker builds one ring-echo worker with the given thread count
// plus its request/response rings, and returns the built enclave and
// ring ids.
func ringWorker(t *testing.T, sys *sanctorum.System, nThreads int) (eid uint64, tids []uint64, reqRing, respRing uint64) {
	t.Helper()
	l := enclaves.DefaultLayout()
	regions := sys.OS.FreeRegions()
	spec, err := enclaves.SpecN(l, enclaves.RingEchoServer(l), nil, regions[:1], nil, nThreads)
	if err != nil {
		t.Fatal(err)
	}
	built, err := sys.BuildEnclave(spec)
	if err != nil {
		t.Fatal(err)
	}
	reqRing, _ = sys.OS.AllocMetaPage()
	respRing, _ = sys.OS.AllocMetaPage()
	if err := sys.OS.SM.RingCreate(reqRing, api.DomainOS, built.EID, 8); err != nil {
		t.Fatal(err)
	}
	if err := sys.OS.SM.RingCreate(respRing, built.EID, api.DomainOS, 8); err != nil {
		t.Fatal(err)
	}
	return built.EID, built.TIDs, reqRing, respRing
}

// runWorker enters the thread on the core and runs it until the
// monitor hands the core back, returning the guest's a0 (the park
// marker or exit status).
func runWorker(t *testing.T, sys *sanctorum.System, core int, eid, tid uint64) uint64 {
	t.Helper()
	st := api.ErrRetry
	for attempt := 0; attempt < 128 && st == api.ErrRetry; attempt++ {
		st = sys.OS.EnterEnclave(core, eid, tid)
	}
	if st != api.OK {
		t.Fatalf("enter core %d: %v", core, st)
	}
	if _, err := sys.Machine.Run(core, 10_000_000); err != nil {
		t.Fatal(err)
	}
	return sys.Machine.Cores[core].CPU.Reg(isa.RegA0)
}

// TestWakeRacingDestroy injects the adversarial preemption the
// interleaving explorer aims at ring teardown: ring_destroy completes
// — waking the parked consumer and freeing the ring id — inside
// ring_send's window between fetching the ring and locking it. The
// send must be refused by the dead-ring recheck, the destroy's wake
// must not be lost, and the woken worker's re-executed park must
// observe the shutdown.
func TestWakeRacingDestroy(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	eid, tids, reqRing, respRing := ringWorker(t, sys, 1)
	var wakes []sm.LockPoint // reuse the pair shape: Kind unused
	var wakeTIDs []uint64
	sys.Monitor.SetWakeSink(func(ring, weid, wtid uint64) {
		wakes = append(wakes, sm.LockPoint{ID: ring})
		wakeTIDs = append(wakeTIDs, wtid)
	})
	if a0 := runWorker(t, sys, 0, eid, tids[0]); a0 != api.ParkedExitValue {
		t.Fatalf("worker did not park: a0=%#x", a0)
	}

	armed := true
	sys.Monitor.SetLockFaultHook(func(lp sm.LockPoint) bool {
		if !armed || lp.Kind != sm.LockRing || lp.ID != reqRing {
			return false
		}
		armed = false
		if err := sys.OS.SM.RingDestroy(reqRing); err != nil {
			t.Errorf("racing destroy: %v", err)
		}
		return false
	})
	stage, _ := sys.OS.AllocPagePA()
	_, err = sys.OS.SM.RingSend(reqRing, stage, 1)
	sys.Monitor.SetLockFaultHook(nil)
	if err == nil {
		t.Fatal("ring_send landed on a destroyed ring")
	}
	if !errors.Is(err, api.ErrInvalidValue) {
		t.Fatalf("send against dead ring: %v, want ErrInvalidValue", err)
	}
	if len(wakes) != 1 || wakes[0].ID != reqRing || wakeTIDs[0] != tids[0] {
		t.Fatalf("destroy posted wakes %v/%v, want exactly one for the parked worker", wakes, wakeTIDs)
	}
	// The woken worker re-executes its park, which now fails — the
	// shutdown signal — and the guest exits.
	if a0 := runWorker(t, sys, 0, eid, tids[0]); a0 != enclaves.WorkerExitStatus {
		t.Fatalf("woken worker a0=%#x, want exit status %#x", a0, enclaves.WorkerExitStatus)
	}
	if err := sys.Monitor.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := sys.OS.SM.RingDestroy(respRing); err != nil {
		t.Fatal(err)
	}
	if err := sys.OS.SM.DeleteEnclave(eid); err != nil {
		t.Fatal(err)
	}
	if err := sys.Monitor.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDoubleParkRefused parks one thread of a two-thread worker on the
// request ring, then has the sibling thread attempt the same park: the
// monitor must refuse the second waiter (one-waiter contract), keep the
// first registration intact, and the refused guest treats it as
// shutdown.
func TestDoubleParkRefused(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Baseline, Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	eid, tids, reqRing, respRing := ringWorker(t, sys, 2)
	if a0 := runWorker(t, sys, 0, eid, tids[0]); a0 != api.ParkedExitValue {
		t.Fatalf("first thread did not park: a0=%#x", a0)
	}
	if a0 := runWorker(t, sys, 1, eid, tids[1]); a0 != enclaves.WorkerExitStatus {
		t.Fatalf("second parker a0=%#x, want refusal-driven exit %#x", a0, enclaves.WorkerExitStatus)
	}
	shot := sys.Monitor.CaptureState().Rings[reqRing]
	if shot.WaiterEID != eid || shot.WaiterTID != tids[0] {
		t.Fatalf("waiter = %#x/%#x, want first thread %#x/%#x intact",
			shot.WaiterEID, shot.WaiterTID, eid, tids[0])
	}
	if err := sys.Monitor.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Shutdown: destroying the ring wakes the remaining waiter, whose
	// re-executed park fails.
	if err := sys.OS.SM.RingDestroy(reqRing); err != nil {
		t.Fatal(err)
	}
	if a0 := runWorker(t, sys, 0, eid, tids[0]); a0 != enclaves.WorkerExitStatus {
		t.Fatalf("woken waiter a0=%#x, want exit %#x", a0, enclaves.WorkerExitStatus)
	}
	if err := sys.OS.SM.RingDestroy(respRing); err != nil {
		t.Fatal(err)
	}
	if err := sys.OS.SM.DeleteEnclave(eid); err != nil {
		t.Fatal(err)
	}
	if err := sys.Monitor.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestParkOnFillingRingUnderFaults streams sends into the request ring
// from a producer goroutine while the consumer hart parks and re-parks,
// with the fault hook spuriously failing a fraction of the producer's
// ring-lock acquisitions — ErrRetry storms landing exactly in the
// park/wake window. No send may be lost, no wake dropped, and the
// invariant suite must hold at every park. Runs under -race in CI.
func TestParkOnFillingRingUnderFaults(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	sys.Machine.SetConcurrent(true)
	eid, tids, reqRing, respRing := ringWorker(t, sys, 1)

	const total = 96
	wakes := make(chan struct{}, total+8)
	sys.Monitor.SetWakeSink(func(ring, weid, wtid uint64) {
		if weid == eid {
			wakes <- struct{}{}
		}
	})
	// Spurious-failure storm on the request ring's lock, every third
	// acquisition. The hook is called from both the producer goroutine
	// and the consumer hart, so it must be atomic; the guest re-issues
	// a park refused with ErrRetry and its send loop likewise retries,
	// so both sides absorb the storm.
	var acquisitions atomic.Uint64
	sys.Monitor.SetLockFaultHook(func(lp sm.LockPoint) bool {
		if lp.Kind != sm.LockRing || lp.ID != reqRing {
			return false
		}
		return acquisitions.Add(1)%3 == 0
	})
	defer sys.Monitor.SetLockFaultHook(nil)

	if a0 := runWorker(t, sys, 0, eid, tids[0]); a0 != api.ParkedExitValue {
		t.Fatalf("worker did not park: a0=%#x", a0)
	}
	sendPA, _ := sys.OS.AllocPagePA()
	recvPA, _ := sys.OS.AllocPagePA()
	var served atomic.Int64
	// The invariant check below captures the request ring's state; it
	// holds sending so the producer is never inside a send meanwhile.
	var sending sync.Mutex
	streamEchoRequests(t, sys, reqRing, sendPA, total, 8 /* response ring capacity */, &served, &sending)
	for served.Load() < total {
		<-wakes
		for {
			st := sys.OS.EnterEnclave(0, eid, tids[0])
			if st == api.OK {
				break
			}
			runtime.Gosched()
		}
		if _, err := sys.Machine.Run(0, 10_000_000); err != nil {
			t.Fatal(err)
		}
		if a0 := sys.Machine.Cores[0].CPU.Reg(isa.RegA0); a0 != api.ParkedExitValue {
			t.Fatalf("worker stopped with a0=%#x, want park", a0)
		}
		sending.Lock()
		err := sys.Monitor.CheckInvariants()
		sending.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		for {
			n, err := sys.OS.SM.RingRecv(respRing, recvPA, 8)
			if errors.Is(err, api.ErrInvalidState) {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			served.Add(int64(n))
		}
	}
	if got := served.Load(); got != total {
		t.Fatalf("served %d responses, want %d", got, total)
	}
	if stormed := acquisitions.Load(); stormed < total {
		t.Fatalf("fault hook saw only %d ring acquisitions over %d messages", stormed, total)
	}
}
