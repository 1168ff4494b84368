// Multi-hart scheduling integration tests: the OS scheduler timeshares
// enclave threads across cores through the monitor's transactional API,
// in deterministic mode (bit-reproducible) and parallel mode (goroutine
// per core, run under -race by CI). The parallel stress test is the
// §V-A artifact: ≥4 enclave threads across 4 cores with contended
// monitor transactions observing api.ErrRetry.
package sanctorum_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sanctorum"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/isa"
	ios "sanctorum/internal/os"
	"sanctorum/internal/sm/api"
)

// workerFarm builds nEnclaves enclaves running the Worker kernel with
// threadsPer threads each, gives every enclave its own shared page,
// and writes iteration count n into each enclave's ShInput. It returns
// the tasks and a verify func checking every thread's published result.
func workerFarm(t *testing.T, sys *sanctorum.System, nEnclaves, threadsPer int, n uint64) ([]sanctorum.Task, func()) {
	t.Helper()
	regions := sys.OS.FreeRegions()
	if len(regions) < nEnclaves {
		t.Fatalf("need %d free regions, have %d", nEnclaves, len(regions))
	}
	var tasks []sanctorum.Task
	type check struct {
		sharedPA uint64
		slot     int
	}
	var checks []check
	for e := 0; e < nEnclaves; e++ {
		l := enclaves.DefaultLayout()
		l.SharedVA = 0x50000000 + uint64(e)*0x10000
		sharedPA, err := sys.SetupShared(l.SharedVA)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := enclaves.SpecN(l, enclaves.Worker(l), nil, regions[e:e+1],
			[]ios.SharedMapping{{VA: l.SharedVA, PA: sharedPA}}, threadsPer)
		if err != nil {
			t.Fatal(err)
		}
		built, err := sys.BuildEnclave(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := sys.SharedWriteWord(sharedPA, enclaves.ShInput, n); err != nil {
			t.Fatal(err)
		}
		for ti, tid := range built.TIDs {
			tasks = append(tasks, sanctorum.Task{EID: built.EID, TID: tid})
			checks = append(checks, check{
				sharedPA: sharedPA,
				slot:     enclaves.WorkerSlot(spec.Threads[ti].StackVA),
			})
		}
	}
	want := enclaves.WorkerExpected(n)
	verify := func() {
		t.Helper()
		for i, ck := range checks {
			got, err := sys.SharedReadWord(ck.sharedPA, enclaves.ShOutput+ck.slot)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("task %d published %#x, want %#x", i, got, want)
			}
		}
	}
	return tasks, verify
}

func checkResults(t *testing.T, results []sanctorum.TaskResult, wantPreempted bool) {
	t.Helper()
	preempted := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("task %d: %v", i, r.Err)
		}
		if r.Reason != machine.StopReturnToOS || r.TrapCause != isa.CauseECallU {
			t.Fatalf("task %d ended %v/%v, want clean exit", i, r.Reason, r.TrapCause)
		}
		if r.ExitValue != enclaves.WorkerExitStatus {
			t.Fatalf("task %d exit value %#x", i, r.ExitValue)
		}
		if r.Steps == 0 {
			t.Fatalf("task %d retired no instructions", i)
		}
		preempted += r.Preemptions
	}
	if wantPreempted && preempted == 0 {
		t.Error("no task was ever preempted despite the quantum")
	}
}

// TestRunAllDeterministic timeshares three worker threads over two
// cores with timer preemption and requires (a) correct results after
// arbitrary many AEX/resume cycles and (b) bit-identical scheduling on
// a second, identically-built system.
func TestRunAllDeterministic(t *testing.T) {
	run := func() []sanctorum.TaskResult {
		sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
		if err != nil {
			t.Fatal(err)
		}
		tasks, verify := workerFarm(t, sys, 3, 1, 20_000)
		cfg := sanctorum.SchedConfig{
			Mode:          sanctorum.Deterministic,
			QuantumCycles: 30_000,
			SliceSteps:    7_000,
		}
		results := sys.RunAll(cfg, tasks)
		verify()
		return results
	}
	a, b := run(), run()
	checkResults(t, a, true)
	if len(a) != len(b) {
		t.Fatalf("runs returned %d vs %d results", len(a), len(b))
	}
	for i := range a {
		if a[i].Steps != b[i].Steps || a[i].Preemptions != b[i].Preemptions ||
			a[i].ExitValue != b[i].ExitValue {
			t.Fatalf("deterministic mode diverged at task %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestRunAllParallelStress is the acceptance stress test: two enclaves
// with two worker threads each — four enclave threads — scheduled in
// parallel across four cores with timer preemption, while untrusted-OS
// goroutines hammer region transactions on a spare region. Requires
// every task to finish correctly under -race and at least one monitor
// transaction to fail with api.ErrRetry (§V-A contention observed).
// The hammers outlive RunAll until a retry is seen or retryDeadline
// passes: the clean's lock window is short, so whether one lands
// while the tasks run is luck.
func TestRunAllParallelStress(t *testing.T) {
	const retryDeadline = 10 * time.Second
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	tasks, verify := workerFarm(t, sys, 2, 2, 30_000)
	if len(tasks) != 4 {
		t.Fatalf("built %d tasks, want 4", len(tasks))
	}
	// Created before the hammers start, so the machine is latched into
	// concurrent operation before any goroutine races the monitor.
	sched := sys.NewScheduler(sanctorum.SchedConfig{
		Mode:          sanctorum.Parallel,
		QuantumCycles: 25_000,
		SliceSteps:    5_000,
	})

	// Region hammer: goroutine A walks a spare region through
	// block→clean→grant (clean holds the region lock for the whole
	// scrub + IPI shootdown), goroutine B probes it; B's TryLock misses
	// land in A's window and surface as ErrRetry.
	spare := sys.OS.FreeRegions()
	spareRegion := spare[len(spare)-1]
	var retries atomic.Uint64
	var retried sync.Once
	sawRetry := make(chan struct{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	hammer := func(work func()) {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			work()
		}
	}
	wg.Add(2)
	// The hammers speak the unified ABI single-shot (client Try, no
	// retry absorption), and try counts every ErrRetry, the ones the
	// clean and grant loops below retry through included.
	try := func(c api.Call, args ...uint64) api.Error {
		st := sys.OS.SM.Try(api.OSRequest(c, args...)).Status
		if st == api.ErrRetry {
			retries.Add(1)
			retried.Do(func() { close(sawRetry) })
		}
		return st
	}
	go hammer(func() {
		if try(api.CallBlockRegion, uint64(spareRegion)) != api.OK {
			return
		}
		for try(api.CallCleanRegion, uint64(spareRegion)) != api.OK {
		}
		for try(api.CallGrantRegion, uint64(spareRegion), api.DomainOS) != api.OK {
		}
	})
	go hammer(func() {
		try(api.CallRegionInfo, uint64(spareRegion))
	})

	results := sched.RunAll(tasks)
	if sched.Retries() == 0 {
		select {
		case <-sawRetry:
		case <-time.After(retryDeadline):
		}
	}
	close(stop)
	wg.Wait()

	checkResults(t, results, true)
	verify()

	total := retries.Load() + sched.Retries()
	if total == 0 {
		t.Fatal("no monitor transaction ever failed with ErrRetry under parallel contention")
	}
	t.Logf("parallel stress: %d scheduler retries, %d hammer retries, preemptions per task: %d/%d/%d/%d",
		sched.Retries(), retries.Load(),
		results[0].Preemptions, results[1].Preemptions,
		results[2].Preemptions, results[3].Preemptions)

	// The spare region must have come out of the storm in a legal
	// final state.
	stRegion, owner, err := sys.OS.SM.RegionInfo(spareRegion)
	if err != nil {
		t.Fatalf("final region info: %v", err)
	}
	if owner != api.DomainOS {
		t.Fatalf("spare region ended owned by %#x", owner)
	}
	_ = stRegion
}

// TestRunAllKeystone runs the deterministic scheduler on the Keystone
// backend, exercising PMP reprogramming across timeshared entries.
func TestRunAllKeystone(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Keystone})
	if err != nil {
		t.Fatal(err)
	}
	tasks, verify := workerFarm(t, sys, 2, 1, 15_000)
	results := sys.RunAll(sanctorum.SchedConfig{
		Mode:          sanctorum.Deterministic,
		QuantumCycles: 30_000,
	}, tasks)
	checkResults(t, results, true)
	verify()
}
