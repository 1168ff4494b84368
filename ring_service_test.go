// End-to-end tests for the enclave messaging layer (DESIGN.md §9):
// mailbox rings, park/wake scheduling, and the request-serving gateway
// over snapshot/clone pool workers.
package sanctorum_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"sanctorum"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/isa"
	ios "sanctorum/internal/os"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/telemetry"
)

// ringService builds a pool from the given ring-server program and a
// gateway of nWorkers over it.
func ringService(t testing.TB, sys *sanctorum.System, prog string, nWorkers int,
	cfg sanctorum.GatewayConfig) (*ios.Pool, *ios.Gateway) {
	t.Helper()
	l := enclaves.DefaultLayout()
	regions := sys.OS.FreeRegions()
	if len(regions) < 1+nWorkers {
		t.Fatalf("need %d free regions, have %d", 1+nWorkers, len(regions))
	}
	var spec *ios.EnclaveSpec
	var err error
	switch prog {
	case "echo":
		spec, err = enclaves.Spec(l, enclaves.RingEchoServer(l), nil, regions[:1], nil)
	case "kv":
		spec, err = enclaves.Spec(l, enclaves.RingKVServer(l), nil, regions[:1], nil)
	default:
		t.Fatalf("unknown ring server %q", prog)
	}
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sys.NewPool(spec, regions[1:1+nWorkers], 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = nWorkers
	gw, err := sys.NewGateway(pool, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return pool, gw
}

func echoPayload(i int) []byte {
	msg := make([]byte, api.RingMsgSize)
	binary.LittleEndian.PutUint64(msg, uint64(1000+i))
	binary.LittleEndian.PutUint64(msg[8:], ^uint64(i))
	msg[63] = byte(i)
	return msg
}

// streamEchoRequests sends total echo requests into reqRing, one per
// ring send, from a producer goroutine running beside the test's
// consumer hart. It keeps at most window requests unanswered, where
// answered counts the responses the test has drained — the gateway's
// own inflight rule. The test drains the response ring only between
// Machine.Run calls, so a producer further ahead would let the worker
// fill its response ring and spin on backpressure until the step limit.
func streamEchoRequests(t *testing.T, sys *sanctorum.System, reqRing, sendPA uint64,
	total, window int, answered *atomic.Int64) {
	go func() {
		for i := 0; i < total; {
			if int64(i)-answered.Load() >= int64(window) {
				runtime.Gosched() // window full: wait for the test to drain
				continue
			}
			if err := sys.OS.WriteOwned(sendPA, echoPayload(i)); err != nil {
				t.Error(err)
				return
			}
			if _, err := sys.OS.SM.RingSend(reqRing, sendPA, 1); err != nil {
				if errors.Is(err, api.ErrInvalidState) {
					runtime.Gosched() // ring full: the consumer will drain
					continue
				}
				t.Errorf("send %d: %v", i, err)
				return
			}
			i++
		}
	}()
}

// TestEnclaveRingService serves an echo workload through the gateway
// on every platform backend: requests travel as batched ring sends,
// parked workers wake through the monitor, and every response comes
// back stamped with the worker's identity and the template
// measurement.
func TestEnclaveRingService(t *testing.T) {
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone, sanctorum.Baseline} {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			pool, gw := ringService(t, sys, "echo", 2, sanctorum.GatewayConfig{
				Sched: sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
			})
			const n = 37 // odd on purpose: exercises partial final chunks
			reqs := make([][]byte, n)
			for i := range reqs {
				reqs[i] = echoPayload(i)
			}
			resps, err := gw.Process(reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range reqs {
				want := enclaves.RingEchoExpected(reqs[i])
				if string(resps[i]) != string(want) {
					t.Fatalf("response %d = %x, want %x", i, resps[i][:16], want[:16])
				}
			}
			if gw.Served != n {
				t.Fatalf("gateway served %d, want %d", gw.Served, n)
			}
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
			if refs := sys.Machine.Mem.TotalRefs(); refs != 0 {
				t.Fatalf("page refs leaked: %d", refs)
			}
		})
	}
}

// TestRingKVService drives the stateful KV worker: puts land in one
// worker's private store, gets read them back, and a second worker —
// a clone of the same measured template — holds independent state.
func TestRingKVService(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		t.Fatal(err)
	}
	// One worker, so every request hits the same private store.
	pool, gw := ringService(t, sys, "kv", 1, sanctorum.GatewayConfig{
		Sched: sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
	})
	var reqs [][]byte
	for k := uint64(0); k < 10; k++ {
		reqs = append(reqs, enclaves.RingKVRequest(enclaves.RingOpPut, k, 100+k))
	}
	for k := uint64(0); k < 10; k++ {
		reqs = append(reqs, enclaves.RingKVRequest(enclaves.RingOpGet, k, 0))
	}
	reqs = append(reqs, enclaves.RingKVRequest(enclaves.RingOpGet, 99, 0)) // never written
	resps, err := gw.Process(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 10; k++ {
		if v := binary.LittleEndian.Uint64(resps[10+k]); v != 100+k {
			t.Errorf("get %d = %d, want %d", k, v, 100+k)
		}
		if key := binary.LittleEndian.Uint64(resps[10+k][8:]); key != k {
			t.Errorf("get %d echoed key %d", k, key)
		}
	}
	if v := binary.LittleEndian.Uint64(resps[20]); v != 0 {
		t.Errorf("unwritten key read %d, want 0", v)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestGatewayParallelServing runs the gateway's waves under the
// parallel scheduler — multiple workers genuinely concurrent on
// multiple cores, preempted by timer quanta — which puts the park/wake
// path, the ring transactions and the wake sink under -race in CI.
func TestGatewayParallelServing(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	pool, gw := ringService(t, sys, "echo", 3, sanctorum.GatewayConfig{
		Batch: 4,
		Sched: sanctorum.SchedConfig{
			Mode:          sanctorum.Parallel,
			QuantumCycles: 10_000,
		},
	})
	const n = 96
	reqs := make([][]byte, n)
	for i := range reqs {
		reqs[i] = echoPayload(i)
	}
	resps, err := gw.Process(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		want := enclaves.RingEchoExpected(reqs[i])
		if string(resps[i]) != string(want) {
			t.Fatalf("response %d = %x, want %x", i, resps[i][:16], want[:16])
		}
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRingParkWakeRace races the park/wake protocol directly, without
// the gateway's wave structure: a producer goroutine streams sends
// into the request ring while the consumer hart parks and re-parks,
// so the waiter registration, the wake-through-IPI delivery and the
// re-entry all overlap with live sends. Run under -race in CI.
func TestRingParkWakeRace(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		t.Fatal(err)
	}
	sys.Machine.SetConcurrent(true)
	l := enclaves.DefaultLayout()
	regions := sys.OS.FreeRegions()
	spec, err := enclaves.Spec(l, enclaves.RingEchoServer(l), nil, regions[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	built, err := sys.BuildEnclave(spec)
	if err != nil {
		t.Fatal(err)
	}
	reqRing, _ := sys.OS.AllocMetaPage()
	respRing, _ := sys.OS.AllocMetaPage()
	if err := sys.OS.SM.RingCreate(reqRing, api.DomainOS, built.EID, 32); err != nil {
		t.Fatal(err)
	}
	if err := sys.OS.SM.RingCreate(respRing, built.EID, api.DomainOS, 32); err != nil {
		t.Fatal(err)
	}
	sendPA, _ := sys.OS.AllocPagePA()
	recvPA, _ := sys.OS.AllocPagePA()

	const total = 120
	wakes := make(chan struct{}, total+8)
	sys.Monitor.SetWakeSink(func(ring, eid, tid uint64) {
		if eid == built.EID {
			wakes <- struct{}{}
		}
	})

	// Startup: run the worker once so it discovers its rings and parks
	// (a send only wakes a registered waiter).
	if st := sys.OS.EnterEnclave(0, built.EID, built.TIDs[0]); st != api.OK {
		t.Fatalf("startup enter: %v", st)
	}
	if _, err := sys.Machine.Run(0, 10_000_000); err != nil {
		t.Fatal(err)
	}
	if a0 := sys.Machine.Cores[0].CPU.Reg(isa.RegA0); a0 != api.ParkedExitValue {
		t.Fatalf("worker did not park at startup: a0=%#x", a0)
	}

	// Producer: stream all requests, at most a response ring's worth
	// unanswered. Runs concurrently with the consumer hart below.
	var served atomic.Int64
	streamEchoRequests(t, sys, reqRing, sendPA, total, 32 /* response ring capacity */, &served)
	for served.Load() < total {
		<-wakes
		// Enter may race the park transition (the wake can beat the
		// monitor's stopThread): retry until the thread is schedulable.
		for {
			st := sys.OS.EnterEnclave(0, built.EID, built.TIDs[0])
			if st == api.OK {
				break
			}
			runtime.Gosched()
		}
		res, err := sys.Machine.Run(0, 10_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if a0 := sys.Machine.Cores[0].CPU.Reg(isa.RegA0); a0 != api.ParkedExitValue {
			t.Fatalf("worker stopped %v with a0=%#x, want park", res.Reason, a0)
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
}

// TestDeterministicGatewayReplay runs the identical gateway workload
// on two independently built systems under the deterministic scheduler
// and requires the runs to agree observable-by-observable: every
// response byte, the wave count, the modeled cycle counters of every
// core, and — because span stamps are simulated cycles, not wall clock
// — the rendered trace of an instrumented request (DESIGN.md §13).
func TestDeterministicGatewayReplay(t *testing.T) {
	run := func() ([][]byte, int, []uint64, string) {
		sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
		if err != nil {
			t.Fatal(err)
		}
		pool, gw := ringService(t, sys, "kv", 2, sanctorum.GatewayConfig{
			Batch: 4,
			Sched: sanctorum.SchedConfig{Mode: sanctorum.Deterministic, QuantumCycles: 20_000},
		})
		var reqs [][]byte
		for i := uint64(0); i < 24; i++ {
			op := uint64(enclaves.RingOpPut)
			if i%3 == 2 {
				op = enclaves.RingOpGet
			}
			reqs = append(reqs, enclaves.RingKVRequest(op, i%7, i*i))
		}
		tr := telemetry.NewTrace(sys.Machine.CycleNow)
		gw.TraceRequest(tr, -1, 0)
		resps, err := gw.Process(reqs)
		if err != nil {
			t.Fatal(err)
		}
		waves := gw.Waves
		if err := gw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
		var cycles []uint64
		for _, c := range sys.Machine.Cores {
			cycles = append(cycles, c.CPU.Cycles)
		}
		return resps, waves, cycles, tr.Render()
	}
	aResp, aWaves, aCycles, aTrace := run()
	bResp, bWaves, bCycles, bTrace := run()
	if aWaves != bWaves {
		t.Fatalf("wave counts diverged: %d vs %d", aWaves, bWaves)
	}
	for i := range aResp {
		if string(aResp[i]) != string(bResp[i]) {
			t.Fatalf("response %d diverged: %x vs %x", i, aResp[i][:16], bResp[i][:16])
		}
	}
	if fmt.Sprint(aCycles) != fmt.Sprint(bCycles) {
		t.Fatalf("modeled cycles diverged: %v vs %v", aCycles, bCycles)
	}
	if aTrace == "" {
		t.Fatal("traced request produced no spans")
	}
	if aTrace != bTrace {
		t.Fatalf("traced-request spans diverged:\n%s\nvs\n%s", aTrace, bTrace)
	}
}
