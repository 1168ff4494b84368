// Tests of the gateway's serving path (DESIGN.md §9): batched ring
// sends per worker, recovery after a refused serving call, and the
// exact allocation count of a serving call.
package sanctorum_test

import (
	"bytes"
	"fmt"
	"testing"

	"sanctorum"
	"sanctorum/internal/enclaves"
	ios "sanctorum/internal/os"
	"sanctorum/internal/sm/api"
)

// ringSends reads the registry's count of mailbox_ring_send calls,
// host sends and the workers' response sends alike.
func ringSends(sys *sanctorum.System) uint64 {
	return sys.Telemetry.Snapshot().Counters["sm.call.mailbox_ring_send.count"]
}

// TestGatewayBatchedSendsChangeOnlyCallCount serves one KV batch under
// KeyAffinity twice, each time on a fresh system: with the two keys
// interleaved (A B A B …), and with the same requests grouped by
// worker. Each worker's ring receives the same messages in the same
// order either way, so responses and modeled cycles must be identical,
// and both orders must cost each worker ⌈queued/Batch⌉ host sends per
// wave: the gateway sends per worker, not per routed chunk.
func TestGatewayBatchedSendsChangeOnlyCallCount(t *testing.T) {
	const perKey, batch = 12, 4
	keys := [2]uint64{0, 1} // KeyAffinity homes: worker 0 and worker 1
	var interleaved, grouped []uint64
	for i := 0; i < perKey; i++ {
		interleaved = append(interleaved, keys[0], keys[1])
	}
	for _, k := range keys {
		for i := 0; i < perKey; i++ {
			grouped = append(grouped, k)
		}
	}
	// request is the j-th request of key k: puts, with every third a get.
	request := func(k uint64, j int) []byte {
		if j%3 == 2 {
			return enclaves.RingKVRequest(enclaves.RingOpGet, k, 0)
		}
		return enclaves.RingKVRequest(enclaves.RingOpPut, k, k<<32|uint64(j))
	}
	type run struct {
		resps  map[[2]uint64][]byte // by (key, j)
		cycles []uint64
		sends  uint64
	}
	serve := func(t *testing.T, kind sanctorum.Kind, order []uint64) run {
		sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: kind})
		if err != nil {
			t.Fatal(err)
		}
		pool, gw := ringService(t, sys, "kv", 2, sanctorum.GatewayConfig{
			Batch:  batch,
			Router: ios.KeyAffinity{},
			Sched:  sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
		})
		var reqs [][]byte
		var ids [][2]uint64
		seen := map[uint64]int{}
		for _, k := range order {
			reqs = append(reqs, request(k, seen[k]))
			ids = append(ids, [2]uint64{k, uint64(seen[k])})
			seen[k]++
		}
		sends0, waves0 := ringSends(sys), gw.Waves
		resps, err := gw.ProcessKeyed(order, reqs)
		if err != nil {
			t.Fatal(err)
		}
		if gw.Waves-waves0 != 1 {
			t.Fatalf("served in %d waves, want 1", gw.Waves-waves0)
		}
		r := run{resps: map[[2]uint64][]byte{}, sends: ringSends(sys) - sends0}
		for i, id := range ids {
			r.resps[id] = resps[i]
		}
		for _, c := range sys.Machine.Cores {
			r.cycles = append(r.cycles, c.CPU.Cycles)
		}
		if err := gw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := pool.Close(); err != nil {
			t.Fatal(err)
		}
		return r
	}
	ceil := func(n, d int) uint64 { return uint64((n + d - 1) / d) }
	// Each worker's perKey requests go out in ⌈perKey/batch⌉ host sends;
	// the registry also counts the worker's own response sends, one per
	// recv of up to RingServeBatch requests.
	want := 2*ceil(perKey, batch) + 2*ceil(perKey, enclaves.RingServeBatch)
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone, sanctorum.Baseline} {
		t.Run(kind.String(), func(t *testing.T) {
			a := serve(t, kind, interleaved)
			b := serve(t, kind, grouped)
			for id, resp := range a.resps {
				if !bytes.Equal(resp, b.resps[id]) {
					t.Fatalf("key %d request %d: interleaved %x, grouped %x", id[0], id[1], resp[:16], b.resps[id][:16])
				}
			}
			if fmt.Sprint(a.cycles) != fmt.Sprint(b.cycles) {
				t.Fatalf("modeled cycles differ: interleaved %v, grouped %v", a.cycles, b.cycles)
			}
			if a.sends != want || b.sends != want {
				t.Fatalf("mailbox_ring_send calls: interleaved %d, grouped %d, want %d", a.sends, b.sends, want)
			}
		})
	}
}

// TestGatewayRefusedCallThenServes requires that a refused serving call
// leave nothing behind that a later call could trip over, on the plain
// and the bulk path and on every backend. A payload longer than a ring
// message is refused before anything is sent. A bulk descriptor the
// monitor refuses fails the call after earlier sends went out; their
// responses are orphans, drained and discarded by the next call.
func TestGatewayRefusedCallThenServes(t *testing.T) {
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone, sanctorum.Baseline} {
		t.Run(kind.String()+"/plain", func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			pool, gw := ringService(t, sys, "echo", 2, sanctorum.GatewayConfig{
				Sched: sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
			})
			reqs := make([][]byte, 16)
			for i := range reqs {
				reqs[i] = echoPayload(i)
			}
			reqs[8] = make([]byte, api.RingMsgSize+1)
			sends0 := ringSends(sys)
			if _, err := gw.Process(reqs); err == nil {
				t.Fatal("oversized payload served")
			}
			if sent := ringSends(sys) - sends0; sent != 0 {
				t.Fatalf("refused call made %d ring sends, want 0", sent)
			}
			next := [][]byte{echoPayload(100), echoPayload(101), echoPayload(102)}
			resps, err := gw.Process(next)
			if err != nil {
				t.Fatal(err)
			}
			for i, req := range next {
				if want := enclaves.RingEchoExpected(req); !bytes.Equal(resps[i], want) {
					t.Fatalf("response %d = %x, want %x", i, resps[i][:16], want[:16])
				}
			}
			if gw.Served != len(next) {
				t.Fatalf("gateway served %d, want %d", gw.Served, len(next))
			}
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
		})
		t.Run(kind.String()+"/bulk", func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			pool, gw := bulkService(t, sys, "echo", 2, 4)
			_, basePA, size := gw.BulkBuffer(0)
			buf := make([]byte, size)
			fillPattern(buf, 7)
			if err := sys.OS.WriteOwned(basePA, buf); err != nil {
				t.Fatal(err)
			}
			// The default Batch of 8 sends requests 0..7, then the
			// monitor refuses the send holding request 12's span, which
			// runs past the grant.
			reqs := make([][]byte, 16)
			for i := range reqs {
				reqs[i] = sg([2]uint64{uint64(i * 64), 512})
			}
			reqs[12] = sg([2]uint64{uint64(size - 8), 4096})
			if _, err := gw.ProcessBulk(0, reqs); err == nil {
				t.Fatal("out-of-grant descriptor served")
			}
			next := [][]byte{sg([2]uint64{0, 4096}), sg([2]uint64{8, 100}, [2]uint64{4096, 4096})}
			resps, err := gw.ProcessBulk(0, next)
			if err != nil {
				t.Fatal(err)
			}
			for i, req := range next {
				if want := enclaves.BulkEchoExpected(req, buf); !bytes.Equal(resps[i], want) {
					t.Fatalf("response %d = %x, want %x", i, resps[i][:16], want[:16])
				}
			}
			if gw.Served != len(next) {
				t.Fatalf("gateway served %d, want %d", gw.Served, len(next))
			}
			if err := gw.Close(); err != nil {
				t.Fatal(err)
			}
			if err := pool.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// gatewayServeAllocs is the exact number of heap objects one
// Gateway.Process of one wave over two workers allocates (Go 1.24),
// whatever its size: the response slice and the one arena the
// responses share. Routing, sends, recvs, the wave's scheduler, the
// wakes of its workers (posted to the IPI mailbox by value), the
// workers' ECALLs and the trap records of their returns to the OS (a
// per-core buffer) allocate nothing. The count does not depend on the
// host, so it is gated exactly: a rise is a regression, and a fall
// should lower the pin.
const gatewayServeAllocs = 2

// TestGatewayServeAllocs pins the allocations of one Gateway.Process of
// 32 echo requests over two workers on Sanctum: BenchmarkGatewayServe's
// wave.
func TestGatewayServeAllocs(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		t.Fatal(err)
	}
	pool, gw := ringService(t, sys, "echo", 2, sanctorum.GatewayConfig{
		Sched: sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
	})
	reqs := make([][]byte, 32)
	for i := range reqs {
		reqs[i] = echoPayload(i)
	}
	resps, err := gw.Process(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range reqs {
		if want := enclaves.RingEchoExpected(reqs[i]); !bytes.Equal(resps[i], want) {
			t.Fatalf("response %d = %x, want %x", i, resps[i][:16], want[:16])
		}
	}
	serve := func() {
		if _, err := gw.Process(reqs); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up, as TestFleetServeAllocs does.
	for i := 0; i < 50; i++ {
		serve()
	}
	if got := testing.AllocsPerRun(100, serve); got != gatewayServeAllocs {
		t.Fatalf("one Gateway.Process allocates %.2f objects, want exactly %d", got, gatewayServeAllocs)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}
