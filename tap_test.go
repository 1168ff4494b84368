// Tests of the monitor tap (internal/telemetry/smtap, DESIGN.md §13):
// the monitor carries no instruments, so every sm.* value the registry
// reports is recorded at the call and trap seams, or where the gateway
// stages descriptor messages.
package sanctorum_test

import (
	"testing"

	"sanctorum"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/hw/machine"
	ios "sanctorum/internal/os"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/smcall"
)

// TestTapRecordsServing serves one KV batch and one bulk batch on
// every backend, each on a fresh system, and pins the monitor
// instruments to the values the serving path implies.
//
// KV: two workers under KeyAffinity, Batch 4, 12 requests per worker.
// Each worker parks once at startup. The gateway queues all 24
// requests, then sends each worker's 12 in 3 host sends of 4; the
// first send pops the worker's park, a wake. In the wave each worker
// drains its ring in enclave recvs of 8 and 4 (the server's batch is
// 8), answers each in one enclave send, and parks again on the empty
// ring. The gateway drains the 12 responses in 3 host recvs of 4.
//
// Bulk: two workers with a grant each; every descriptor message the
// gateway sends adds the bytes its descriptors name.
func TestTapRecordsServing(t *testing.T) {
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone, sanctorum.Baseline} {
		t.Run(kind.String(), func(t *testing.T) {
			t.Run("kv", func(t *testing.T) { tapKV(t, kind) })
			t.Run("bulk", func(t *testing.T) { tapBulk(t, kind) })
		})
	}
}

func tapKV(t *testing.T, kind sanctorum.Kind) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	pool, gw := ringService(t, sys, "kv", 2, sanctorum.GatewayConfig{
		Batch:  4,
		Router: ios.KeyAffinity{},
		Sched:  sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
	})
	var keys []uint64
	var reqs [][]byte
	for i := uint64(0); i < 24; i++ {
		k := i % 2 // KeyAffinity homes key k on worker k
		keys = append(keys, k)
		reqs = append(reqs, enclaves.RingKVRequest(enclaves.RingOpPut, k, i))
	}
	if _, err := gw.ProcessKeyed(keys, reqs); err != nil {
		t.Fatal(err)
	}
	snap := sys.Telemetry.Snapshot()
	for name, want := range map[string]uint64{
		"sm.call.mailbox_ring_send.count": 6 + 4, // host + enclave
		"sm.call.mailbox_ring_recv.count": 6 + 4,
		"sm.ring.parks":                   2 + 2, // startup + after the wave
		"sm.ring.wakes":                   2,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	for _, name := range []string{"sm.ring.send.batch", "sm.ring.recv.batch"} {
		if h := snap.Histograms[name]; h.Count != 10 || h.Sum != 24+24 {
			t.Errorf("%s count, sum = %d, %d, want 10, 48", name, h.Count, h.Sum)
		}
	}
	if n := snap.Histograms["sm.ring.parkwait.cycles"].Count; n != 2 {
		t.Errorf("sm.ring.parkwait.cycles count = %d, want one per wake, 2", n)
	}
	if d := snap.Gauges["sm.ring.depth"]; d != 0 {
		t.Errorf("sm.ring.depth after the drain = %d, want 0", d)
	}

	// Messages a destroy drops leave the gauge with the ring.
	ring, err := sys.OS.AllocMetaPage()
	if err != nil {
		t.Fatal(err)
	}
	pa, err := sys.OS.AllocPagePA()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.OS.SM.RingCreate(ring, api.DomainOS, api.DomainOS, 8); err != nil {
		t.Fatal(err)
	}
	if _, err := sys.OS.SM.RingSend(ring, pa, 3); err != nil {
		t.Fatal(err)
	}
	if d := sys.Telemetry.Snapshot().Gauges["sm.ring.depth"]; d != 3 {
		t.Errorf("sm.ring.depth with 3 queued = %d, want 3", d)
	}
	if err := sys.OS.SM.RingDestroy(ring); err != nil {
		t.Fatal(err)
	}
	if d := sys.Telemetry.Snapshot().Gauges["sm.ring.depth"]; d != 0 {
		t.Errorf("sm.ring.depth after destroying 3 queued = %d, want 0", d)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
}

func tapBulk(t *testing.T, kind sanctorum.Kind) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: kind})
	if err != nil {
		t.Fatal(err)
	}
	const nWorkers, bulkPages = 2, 4
	pool, gw := bulkService(t, sys, "echo", nWorkers, bulkPages)
	if g := sys.Telemetry.Snapshot().Gauges["sm.bulk.grants"]; g != nWorkers {
		t.Errorf("sm.bulk.grants = %d, want %d", g, nWorkers)
	}
	reqs := [][]byte{
		sg([2]uint64{0, 4096}),
		sg([2]uint64{8, 24}, [2]uint64{4096, 512}),
		sg([2]uint64{0, 64}, [2]uint64{2 * 4096, 4096}, [2]uint64{3 * 4096, 16}),
	}
	const bytes = 4096 + 24 + 512 + 64 + 4096 + 16
	for w := 0; w < nWorkers; w++ {
		if _, err := gw.ProcessBulk(w, reqs); err != nil {
			t.Fatal(err)
		}
	}
	snap := sys.Telemetry.Snapshot()
	if got := snap.Counters["sm.bulk.bytes"]; got != nWorkers*bytes {
		t.Errorf("sm.bulk.bytes = %d, want %d", got, nWorkers*bytes)
	}
	if h := snap.Histograms["sm.bulk.descs"]; h.Count != nWorkers*3 || h.Sum != nWorkers*6 {
		t.Errorf("sm.bulk.descs count, sum = %d, %d, want %d, %d", h.Count, h.Sum, nWorkers*3, nWorkers*6)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		t.Fatal(err)
	}
	if g := sys.Telemetry.Snapshot().Gauges["sm.bulk.grants"]; g != 0 {
		t.Errorf("sm.bulk.grants after Close = %d, want 0", g)
	}
}

// TestNoTapWithTelemetryOff pins the off mode: no tap is installed, so
// the monitor is the machine's firmware and the OS client dispatches to
// it directly.
func TestNoTapWithTelemetryOff(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum, DisableTelemetry: true})
	if err != nil {
		t.Fatal(err)
	}
	if sys.Machine.Firmware != machine.Firmware(sys.Monitor) {
		t.Errorf("firmware is %T, want the monitor itself", sys.Machine.Firmware)
	}
	if d := sys.OS.SM.Dispatcher(); d != smcall.Dispatcher(sys.Monitor) {
		t.Errorf("OS.SM dispatches to %T, want the monitor itself", d)
	}
}
