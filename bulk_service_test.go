// End-to-end tests for the zero-copy bulk data plane (DESIGN.md §14):
// monitor-granted shared buffers, scatter-gather descriptor rings, and
// the gateway's ProcessBulk path over them.
package sanctorum_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"sanctorum"
	"sanctorum/internal/enclaves"
	ios "sanctorum/internal/os"
	"sanctorum/internal/sm/api"
)

// sg builds a scatter-gather descriptor message as a byte slice.
func sg(descs ...[2]uint64) []byte {
	d := api.EncodeBulkDescs(descs...)
	return d[:]
}

// bulkService builds a pool from the given bulk-server program and a
// gateway with a bulkPages-page granted buffer per worker.
func bulkService(t testing.TB, sys *sanctorum.System, prog string, nWorkers, bulkPages int) (*ios.Pool, *ios.Gateway) {
	t.Helper()
	l := enclaves.DefaultLayout()
	regions := sys.OS.FreeRegions()
	if len(regions) < 2+nWorkers {
		t.Fatalf("need %d free regions, have %d", 2+nWorkers, len(regions))
	}
	sharedPA, err := sys.SetupShared(l.SharedVA)
	if err != nil {
		t.Fatal(err)
	}
	var program = enclaves.BulkEchoServer(l)
	if prog == "kv" {
		program = enclaves.BulkKVServer(l)
	}
	spec, err := enclaves.BulkSpec(l, program, regions[:1], sharedPA)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sys.NewPool(spec, regions[1:1+nWorkers], 1)
	if err != nil {
		t.Fatal(err)
	}
	gw, err := sys.NewGateway(pool, sanctorum.GatewayConfig{
		Workers:    nWorkers,
		BulkPages:  bulkPages,
		BulkRegion: regions[1+nWorkers],
		Sched:      sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
	})
	if err != nil {
		t.Fatal(err)
	}
	return pool, gw
}

// fillPattern writes a deterministic per-worker byte pattern.
func fillPattern(buf []byte, seed byte) {
	for i := range buf {
		buf[i] = byte(i>>3) ^ seed
	}
}

// TestBulkEchoService serves scatter-gather checksum requests through
// the gateway on every platform backend: request data is staged in each
// worker's granted buffer, 64-byte descriptor messages name spans of
// it, and the enclave's checksums prove it dereferenced its mapping —
// with every worker holding a distinct window VA, which is what makes
// the plane work under Sanctum's single OS page table. The invariant
// suite runs after each worker's batch, with every grant live.
func TestBulkEchoService(t *testing.T) {
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone, sanctorum.Baseline} {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			const nWorkers, bulkPages = 2, 16
			pool, gw := bulkService(t, sys, "echo", nWorkers, bulkPages)
			for w := 0; w < nWorkers; w++ {
				grant, basePA, size := gw.BulkBuffer(w)
				if grant == 0 || size != bulkPages*4096 {
					t.Fatalf("worker %d: grant %#x size %d", w, grant, size)
				}
				buf := make([]byte, size)
				fillPattern(buf, byte(w))
				if err := sys.OS.WriteOwned(basePA, buf); err != nil {
					t.Fatal(err)
				}
				reqs := [][]byte{
					sg([2]uint64{0, 4096}),
					sg([2]uint64{0, 8192}, [2]uint64{3 * 4096, 4096}),
					sg([2]uint64{8, 4088}, [2]uint64{2 * 4096, 8192}, [2]uint64{uint64(size - 4096), 4096}),
					sg([2]uint64{0, uint64(size)}),
				}
				out, err := gw.ProcessBulk(w, reqs)
				if err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
				for i, req := range reqs {
					want := enclaves.BulkEchoExpected(req, buf)
					if !bytes.Equal(out[i], want) {
						t.Errorf("worker %d request %d:\n got %x\nwant %x", w, i, out[i], want)
					}
				}
				// Live grants, mapped by their workers, with nothing in
				// flight: the invariant suite must account for them.
				if err := sys.Monitor.CheckInvariants(); err != nil {
					t.Fatalf("worker %d: %v", w, err)
				}
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

// TestDeterministicBulkReplay runs the identical bulk workload on two
// independently built systems under the deterministic scheduler and
// requires the runs to agree observable-by-observable: every response
// byte, the wave count, the modeled cycle counters of every core, and
// the full telemetry snapshot — which includes the bulk-plane
// instruments (sm.bulk.bytes, sm.bulk.grants, sm.bulk.descs), so the
// zero-copy path is provably replay-stable while instrumented.
func TestDeterministicBulkReplay(t *testing.T) {
	run := func() ([][]byte, int, []uint64, string) {
		sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
		if err != nil {
			t.Fatal(err)
		}
		const bulkPages = 8
		pool, gw := bulkService(t, sys, "echo", 1, bulkPages)
		_, basePA, size := gw.BulkBuffer(0)
		buf := make([]byte, size)
		fillPattern(buf, 0x3C)
		if err := sys.OS.WriteOwned(basePA, buf); err != nil {
			t.Fatal(err)
		}
		var reqs [][]byte
		for i := uint64(0); i < 12; i++ {
			off := (i % uint64(bulkPages)) * 4096
			reqs = append(reqs, sg([2]uint64{off, 4096}))
		}
		resps, err := gw.ProcessBulk(0, reqs)
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
		return resps, waves, cycles, sys.Telemetry.Snapshot().Text()
	}
	aResp, aWaves, aCycles, aSnap := run()
	bResp, bWaves, bCycles, bSnap := run()
	if aWaves != bWaves {
		t.Fatalf("wave counts diverged: %d vs %d", aWaves, bWaves)
	}
	for i := range aResp {
		if !bytes.Equal(aResp[i], bResp[i]) {
			t.Fatalf("response %d diverged: %x vs %x", i, aResp[i], bResp[i])
		}
	}
	if fmt.Sprint(aCycles) != fmt.Sprint(bCycles) {
		t.Fatalf("modeled cycles diverged: %v vs %v", aCycles, bCycles)
	}
	if aSnap != bSnap {
		t.Fatalf("telemetry snapshots diverged:\n%s\nvs\n%s", aSnap, bSnap)
	}
}

// TestBulkKVService round-trips multi-KB values through the bulk KV
// worker: put copies a described span out of the shared buffer into
// private enclave slot pages, get copies it back into a different span
// — so the value provably survived inside the enclave, not the buffer.
func TestBulkKVService(t *testing.T) {
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone, sanctorum.Baseline} {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			pool, gw := bulkService(t, sys, "kv", 1, 8)
			_, basePA, size := gw.BulkBuffer(0)
			const valLen = 2048
			val := make([]byte, valLen)
			fillPattern(val, 0xA5)
			if err := sys.OS.WriteOwned(basePA, val); err != nil {
				t.Fatal(err)
			}
			put := enclaves.BulkKVRequest(enclaves.RingOpPut, 5, 0, valLen)
			out, err := gw.ProcessBulk(0, [][]byte{put})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out[0], put) {
				t.Fatalf("put response not echoed: %x", out[0])
			}
			// Scrub the buffer, then get the value back into another span.
			if err := sys.OS.WriteOwned(basePA, make([]byte, size)); err != nil {
				t.Fatal(err)
			}
			get := enclaves.BulkKVRequest(enclaves.RingOpGet, 5, 4096, valLen)
			if _, err := gw.ProcessBulk(0, [][]byte{get}); err != nil {
				t.Fatal(err)
			}
			got, err := sys.OS.ReadOwned(basePA+4096, valLen)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, val) {
				t.Fatalf("value did not survive the enclave round trip")
			}
			// A key that misses (slot never put) reads back zeroes.
			miss := enclaves.BulkKVRequest(enclaves.RingOpGet, 6, 0, valLen)
			if _, err := gw.ProcessBulk(0, [][]byte{miss}); err != nil {
				t.Fatal(err)
			}
			got, err = sys.OS.ReadOwned(basePA, valLen)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, make([]byte, valLen)) {
				t.Fatalf("missing key read back nonzero bytes")
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

// TestBulkKVCopyLoopRunsSteady pins that the bulk KV server's copy
// loops, the data plane's hot code, run in the block engine's steady
// form: on every backend, across puts and gets of 0.5–4 KiB values at
// several buffer offsets, at least 95% of the chained block passes
// must run steady (DESIGN.md §11; they measure 99.9%), and at least 75%
// must run inside a batch (they measure 76.2%: a pass that crosses a
// line, twice in every eight where the streams' line phases differ,
// runs through the op loop).
func TestBulkKVCopyLoopRunsSteady(t *testing.T) {
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone, sanctorum.Baseline} {
		t.Run(kind.String(), func(t *testing.T) {
			sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: kind})
			if err != nil {
				t.Fatal(err)
			}
			pool, gw := bulkService(t, sys, "kv", 1, 8)
			for i := uint64(0); i < 48; i++ {
				valLen := 512 + i*72%3584&^7
				off := i * 40 % 4096
				op := uint64(enclaves.RingOpPut)
				if i%2 == 1 {
					op = enclaves.RingOpGet
				}
				if _, err := gw.ProcessBulk(0, [][]byte{enclaves.BulkKVRequest(op, i/2, off, valLen)}); err != nil {
					t.Fatal(err)
				}
			}
			var loops, steady, batched uint64
			for _, c := range sys.Machine.Cores {
				bs := c.BlockStats()
				loops, steady, batched = loops+bs.Loops, steady+bs.Steady, batched+bs.Batched
			}
			t.Logf("%d of %d chained passes ran steady, %d batched", steady, loops, batched)
			if loops == 0 || 100*steady < 95*loops {
				t.Errorf("%d of %d chained passes ran steady, want at least 95%%", steady, loops)
			}
			if 100*batched < 75*loops {
				t.Errorf("%d of %d chained passes ran batched, want at least 75%%", batched, loops)
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

// TestFailedAddWorkerLeavesServingSet pins the rule that a failed
// AddWorker leaves the gateway's serving set as it was. Two workers'
// 16-page bulk buffers fill the bulk region, so a third worker forks
// and gets its rings but no buffer. The failed worker must be unwired
// and its clone region returned to the pool, and the gateway must keep
// serving over the two wired workers: a worker left in the serving set
// without its startup wave never parks, so a send to it is never
// answered.
func TestFailedAddWorkerLeavesServingSet(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		t.Fatal(err)
	}
	l := enclaves.DefaultLayout()
	regions := sys.OS.FreeRegions()
	sharedPA, err := sys.SetupShared(l.SharedVA)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := enclaves.BulkSpec(l, enclaves.BulkEchoServer(l), regions[:1], sharedPA)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := sys.NewPool(spec, regions[1:4], 1)
	if err != nil {
		t.Fatal(err)
	}
	const bulkPages = 16
	// Bulk buffers come only from a bulk region: a gateway without one
	// is refused before it takes anything from the pool.
	if _, err := sys.NewGateway(pool, sanctorum.GatewayConfig{Workers: 2, BulkPages: bulkPages}); err == nil {
		t.Fatal("bulk gateway without a BulkRegion was built")
	}
	if free := pool.FreeWorkers(); free != 3 {
		t.Fatalf("refused gateway left the pool %d free workers, want 3", free)
	}
	gw, err := sys.NewGateway(pool, sanctorum.GatewayConfig{
		Workers:    2,
		BulkPages:  bulkPages,
		BulkRegion: regions[4],
		Sched:      sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
	})
	if err != nil {
		t.Fatal(err)
	}
	if size := sys.Machine.DRAM.RegionSize(); size != 2*bulkPages*4096 {
		t.Fatalf("region size %d: two workers' buffers no longer fill the bulk region", size)
	}
	if free := pool.FreeWorkers(); free != 1 {
		t.Fatalf("pool has %d free workers before AddWorker, want 1", free)
	}
	err = gw.AddWorker()
	if err == nil || !strings.Contains(err.Error(), "too small for worker 2") {
		t.Fatalf("AddWorker = %v, want the bulk region refusal", err)
	}
	if n := gw.NumWorkers(); n != 2 {
		t.Fatalf("failed AddWorker left %d workers, want 2", n)
	}
	if free := pool.FreeWorkers(); free != 1 {
		t.Fatalf("failed AddWorker left the pool %d free workers, want 1", free)
	}

	buf := make([]byte, bulkPages*4096)
	fillPattern(buf, 0x5A)
	for w := 0; w < 2; w++ {
		_, basePA, _ := gw.BulkBuffer(w)
		if err := sys.OS.WriteOwned(basePA, buf); err != nil {
			t.Fatal(err)
		}
	}
	reqs := make([][]byte, 24)
	for i := range reqs {
		reqs[i] = sg([2]uint64{uint64(i%bulkPages) * 4096, 4096})
	}
	out, err := gw.Process(reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range reqs {
		if want := enclaves.BulkEchoExpected(req, buf); !bytes.Equal(out[i], want) {
			t.Fatalf("request %d:\n got %x\nwant %x", i, out[i], want)
		}
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
}
