// End-to-end tests for the fleet layer (DESIGN.md §12): multi-machine
// sharding behind the distributed gateway, session rebalancing, and
// cross-machine attested channels.
package sanctorum_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"

	"sanctorum"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
)

func fleetRequests(n, sessions int) []sanctorum.FleetRequest {
	reqs := make([]sanctorum.FleetRequest, n)
	for i := range reqs {
		// Spread keys: a multiplicative hash so consecutive sessions
		// land on unrelated ring arcs.
		key := uint64(i%sessions) * 0x9E3779B97F4A7C15
		reqs[i] = sanctorum.FleetRequest{Session: key, Payload: echoPayload(i)}
	}
	return reqs
}

func checkEcho(t *testing.T, reqs []sanctorum.FleetRequest, resps [][]byte) {
	t.Helper()
	for i := range reqs {
		want := enclaves.RingEchoExpected(reqs[i].Payload)
		if string(resps[i]) != string(want) {
			t.Fatalf("response %d = %x, want %x", i, resps[i][:16], want[:16])
		}
	}
}

// TestFleetServe serves an echo workload through a two-shard fleet on
// every platform backend: requests consistent-hash to shards by
// session, each shard's gateway serves its batch on the workers the
// session table recorded, and responses come back in request order.
func TestFleetServe(t *testing.T) {
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone, sanctorum.Baseline} {
		t.Run(kind.String(), func(t *testing.T) {
			f, err := sanctorum.NewFleet(sanctorum.FleetOptions{Kind: kind, Shards: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			reqs := fleetRequests(41, 12) // odd on purpose: partial chunks
			resps, err := f.Process(reqs)
			if err != nil {
				t.Fatal(err)
			}
			checkEcho(t, reqs, resps)
			if f.Served != 41 {
				t.Fatalf("fleet served %d, want 41", f.Served)
			}
			// Both shards should hold sessions: 12 well-spread keys on a
			// 2-shard ring do not all land on one arc.
			used := 0
			for _, st := range f.Stats() {
				if st.Sessions > 0 {
					used++
				}
			}
			if used != 2 {
				t.Fatalf("sessions concentrated on %d of 2 shards", used)
			}
		})
	}
}

// TestFleetRequestTraceChain arms the tracer for one request of a
// TestFleetServe-style workload and requires the complete span chain —
// router → shard → gateway → ring → worker → ring → gateway — with
// every child nested inside its parent's cycle window, begin stamps
// monotone in span order, and a byte-stable rendering. The stamps are
// simulated cycles, so this chain is as reproducible as the workload.
func TestFleetRequestTraceChain(t *testing.T) {
	f, err := sanctorum.NewFleet(sanctorum.FleetOptions{Kind: sanctorum.Sanctum, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reqs := fleetRequests(41, 12)
	tr := f.TraceNextRequest()
	resps, err := f.Process(reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkEcho(t, reqs, resps)

	spans := tr.Spans()
	wantLayers := []string{"router", "router", "shard", "gateway", "ring", "worker", "ring", "gateway"}
	if len(spans) != len(wantLayers) {
		t.Fatalf("trace has %d spans, want %d:\n%s", len(spans), len(wantLayers), tr.Render())
	}
	byID := map[int]int{}
	for i, s := range spans {
		byID[s.ID] = i
	}
	var prevBegin uint64
	for i, s := range spans {
		if s.Layer != wantLayers[i] {
			t.Fatalf("span %d layer %q, want %q:\n%s", i, s.Layer, wantLayers[i], tr.Render())
		}
		if s.End < s.Begin {
			t.Fatalf("span %d (%s/%s) never closed: [%d, %d]", i, s.Layer, s.Name, s.Begin, s.End)
		}
		if i > 0 && s.Begin < prevBegin {
			t.Fatalf("span %d begins at %d, before predecessor's %d", i, s.Begin, prevBegin)
		}
		prevBegin = s.Begin
		if i == 0 {
			if s.Parent != -1 {
				t.Fatalf("root span has parent %d", s.Parent)
			}
			continue
		}
		pi, ok := byID[s.Parent]
		if !ok {
			t.Fatalf("span %d (%s/%s) has unknown parent %d", i, s.Layer, s.Name, s.Parent)
		}
		p := spans[pi]
		if s.Begin < p.Begin || s.End > p.End {
			t.Fatalf("span %d (%s/%s) [%d, %d] escapes parent %s/%s [%d, %d]",
				i, s.Layer, s.Name, s.Begin, s.End, p.Layer, p.Name, p.Begin, p.End)
		}
	}
	// The root must span real simulated work, and the worker span must
	// sit strictly inside it — an enclave executes between dispatch and
	// response, and that execution retires cycles.
	root, worker := spans[0], spans[5]
	if root.End <= root.Begin {
		t.Fatalf("root span is empty: [%d, %d]", root.Begin, root.End)
	}
	if worker.End <= worker.Begin {
		t.Fatalf("worker execute span retired no cycles: [%d, %d]", worker.Begin, worker.End)
	}
	if a, b := tr.Render(), tr.Render(); a != b {
		t.Fatal("trace rendering is not stable")
	}
}

// TestFleetSessionRebalance drains a shard and requires the rebalance
// contract: every one of its sessions re-homes onto a live shard, each
// inheriting shard warmed one extra snapshot-clone worker before the
// cutover, and the same sessions keep being served correctly after.
func TestFleetSessionRebalance(t *testing.T) {
	f, err := sanctorum.NewFleet(sanctorum.FleetOptions{
		Kind:   sanctorum.Sanctum,
		Shards: 3,
		// Two spare clone regions per shard: this test drains twice, and
		// a shard may inherit (and so warm a worker) both times.
		Config: sanctorum.FleetConfig{SpareWorkers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reqs := fleetRequests(48, 16)
	if _, err := f.Process(reqs); err != nil {
		t.Fatal(err)
	}

	// Drain the most-loaded shard, so the move set is non-trivial.
	victim, most := 0, -1
	for i, st := range f.Stats() {
		if st.Sessions > most {
			victim, most = i, st.Sessions
		}
	}
	before := f.Stats()
	moved, err := f.Drain(victim)
	if err != nil {
		t.Fatal(err)
	}
	if moved != most {
		t.Fatalf("drain moved %d sessions, victim held %d", moved, most)
	}
	after := f.Stats()
	if !after[victim].Draining || after[victim].Sessions != 0 {
		t.Fatalf("victim after drain: %+v", after[victim])
	}
	inherited := 0
	for i := range after {
		if i == victim {
			continue
		}
		gained := after[i].Sessions - before[i].Sessions
		if gained > 0 {
			inherited += gained
			// Warm-before-cutover: an inheriting shard has one more
			// worker than it started with.
			if after[i].Workers != before[i].Workers+1 {
				t.Fatalf("shard %d inherited %d sessions but has %d workers (was %d)",
					i, gained, after[i].Workers, before[i].Workers)
			}
		}
	}
	if inherited != moved {
		t.Fatalf("live shards gained %d sessions, drain moved %d", inherited, moved)
	}
	// Every session must be assigned off the victim now.
	for i := range reqs {
		if s, ok := f.Where(reqs[i].Session); !ok || s == victim {
			t.Fatalf("session %#x on shard %d after drain of %d", reqs[i].Session, s, victim)
		}
	}

	// The same sessions keep serving correctly on their new homes.
	resps, err := f.Process(reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkEcho(t, reqs, resps)

	// A second drain of the same shard, and draining the rest down to
	// one live shard, are refused.
	if _, err := f.Drain(victim); err == nil {
		t.Fatal("double drain succeeded")
	}
	others := []int{}
	for i := 0; i < 3; i++ {
		if i != victim {
			others = append(others, i)
		}
	}
	if _, err := f.Drain(others[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Drain(others[1]); err == nil {
		t.Fatal("drained the last live shard")
	}
}

// TestFleetReadYourWrites serves a KV workload through a 3-shard fleet
// in admissions larger than a worker's 64-message request ring, drains
// the shard holding the most sessions, and keeps serving. Sessions 0–127
// each own one of the KV server's 128 slots, and their Zipf skew
// overfills the hottest session's ring within one admission. Every get
// must return its session's last put: the fleet's session table keeps
// each session on one worker, a full ring holds the session's requests
// back rather than sending them to another worker's store, and the
// worker a drain warms on an inheriting shard moves none of that
// shard's own sessions. A session the drain moved lands on a worker
// that never served it, so it reads 0 until its first put after the
// drain, and its own writes after that.
func TestFleetReadYourWrites(t *testing.T) {
	const (
		sessions   = 128
		admit      = 256
		admissions = 12 // before the drain, and again after it
		putShare   = 0.2
	)
	for _, kind := range []sanctorum.Kind{sanctorum.Sanctum, sanctorum.Keystone, sanctorum.Baseline} {
		t.Run(kind.String(), func(t *testing.T) {
			f, err := sanctorum.NewFleet(sanctorum.FleetOptions{
				Kind:   kind,
				Shards: 3,
				Config: sanctorum.FleetConfig{Workload: "kv"},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			var last, puts [sessions]uint64 // model: last value put per session
			var moved [sessions]bool
			// stale[0] and stale[1] count wrong gets before and after the
			// drain by sessions that stayed put; movedStale by the rest.
			var stale [2]int
			movedStale, phase := 0, 0
			serve := func(reqs []sanctorum.FleetRequest, ops []uint64) {
				t.Helper()
				resps, err := f.Process(reqs)
				if err != nil {
					t.Fatal(err)
				}
				for i, q := range reqs {
					key := q.Session
					val := binary.LittleEndian.Uint64(q.Payload[16:])
					if got := binary.LittleEndian.Uint64(resps[i][8:]); got != key {
						t.Fatalf("response %d echoes key %d, want %d", i, got, key)
					}
					got := binary.LittleEndian.Uint64(resps[i])
					if ops[i] == enclaves.RingOpPut {
						last[key] = val
						if got != val {
							t.Fatalf("put %d of session %d stored %#x", val, key, got)
						}
						continue
					}
					if got != last[key] {
						if moved[key] {
							movedStale++
						} else {
							stale[phase]++
						}
					}
				}
			}
			r := rand.New(rand.NewPCG(7, 9001))
			zipf := rand.NewZipf(r, 1.1, 1, sessions-1)
			admission := func() {
				reqs := make([]sanctorum.FleetRequest, admit)
				ops := make([]uint64, admit)
				for i := range reqs {
					s := zipf.Uint64()
					ops[i] = enclaves.RingOpGet
					var val uint64
					if r.Float64() < putShare {
						puts[s]++
						ops[i], val = enclaves.RingOpPut, (s+1)<<32|puts[s]
					}
					reqs[i] = sanctorum.FleetRequest{Session: s, Payload: enclaves.RingKVRequest(ops[i], s, val)}
				}
				serve(reqs, ops)
			}

			// Establish every session with one put, so each has a shard
			// and a worker before the skewed traffic starts.
			reqs := make([]sanctorum.FleetRequest, sessions)
			ops := make([]uint64, sessions)
			for s := range reqs {
				puts[s]++
				ops[s] = enclaves.RingOpPut
				reqs[s] = sanctorum.FleetRequest{
					Session: uint64(s),
					Payload: enclaves.RingKVRequest(ops[s], uint64(s), uint64(s+1)<<32|puts[s]),
				}
			}
			serve(reqs, ops)
			waves := func() uint64 { return f.Telemetry().Snapshot().Counters["os.gateway.waves"] }
			w0 := waves()
			for i := 0; i < admissions; i++ {
				admission()
			}
			// Without a full ring, each admission takes one wave per
			// shard; the skew must overfill rings for this test to mean
			// anything.
			if w := waves() - w0; w <= 3*admissions {
				t.Fatalf("%d admissions took %d waves: no ring filled", admissions, w)
			}

			var before [sessions]int
			for s := range before {
				before[s], _ = f.Where(uint64(s))
			}
			victim, most := 0, -1
			for i, st := range f.Stats() {
				if st.Sessions > most {
					victim, most = i, st.Sessions
				}
			}
			n, err := f.Drain(victim)
			if err != nil {
				t.Fatal(err)
			}
			for s := range before {
				if now, _ := f.Where(uint64(s)); now != before[s] {
					moved[s], last[s] = true, 0 // a moved session starts over empty
					n--
				}
			}
			if n != 0 {
				t.Fatalf("drain of shard %d reported %d more moves than Where shows", victim, n)
			}
			phase = 1
			for i := 0; i < admissions; i++ {
				admission()
			}
			if stale[0]+stale[1]+movedStale > 0 {
				t.Fatalf("stale reads in %d requests at %d per admission: %d before the drain; after it, %d by sessions that stayed put and %d by sessions it moved",
					sessions+2*admissions*admit, admit, stale[0], stale[1], movedStale)
			}
		})
	}
}

// TestFleetFailedDrainUndoesWarmUps makes a drain's second warm-up
// fail and requires the fleet to be exactly as before: the first
// target's warm worker is taken out again, so no shard's worker count
// changes and no session moves. The failure is lock contention the
// monitor reports as retry: the second target's monitor refuses its
// first snapshot-lock acquisition, which is clone_enclave's, and that
// shard's OS client makes one attempt per call. A retried drain, with
// the fault gone, then finds every spare clone region it needs.
func TestFleetFailedDrainUndoesWarmUps(t *testing.T) {
	f, err := sanctorum.NewFleet(sanctorum.FleetOptions{Kind: sanctorum.Sanctum, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reqs := fleetRequests(48, 48)
	resps, err := f.Process(reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkEcho(t, reqs, resps)
	victim, most := 0, -1
	for i, st := range f.Stats() {
		if st.Sessions > most {
			victim, most = i, st.Sessions
		}
	}
	// Targets warm in shard order, so the second is the higher of the
	// two other shards.
	second := 2
	if victim == 2 {
		second = 1
	}
	before := f.Stats()
	where := map[uint64]int{}
	for _, q := range reqs {
		where[q.Session], _ = f.Where(q.Session)
	}

	h := f.Host(second)
	attempts := h.OS.SM.MaxAttempts
	h.OS.SM.MaxAttempts = 1
	refused := false
	h.Monitor.SetLockFaultHook(func(p sm.LockPoint) bool {
		if p.Kind == sm.LockSnapshot && !refused {
			refused = true
			return true
		}
		return false
	})
	_, err = f.Drain(victim)
	if !refused {
		t.Fatalf("drain of shard %d never warmed shard %d (err %v): want a drain with two targets", victim, second, err)
	}
	if !errors.Is(err, api.ErrRetry) {
		t.Fatalf("drain with a refused clone = %v, want a retry failure", err)
	}
	for i, st := range f.Stats() {
		if st != before[i] {
			t.Fatalf("failed drain left shard %d at %+v, was %+v", i, st, before[i])
		}
	}
	for k, s := range where {
		if now, _ := f.Where(k); now != s {
			t.Fatalf("failed drain moved session %#x from shard %d to %d", k, s, now)
		}
	}

	h.Monitor.SetLockFaultHook(nil)
	h.OS.SM.MaxAttempts = attempts
	moved, err := f.Drain(victim)
	if err != nil {
		t.Fatalf("retried drain: %v", err)
	}
	if moved != most {
		t.Fatalf("retried drain moved %d sessions, victim held %d", moved, most)
	}
	after := f.Stats()
	for i := range after {
		if i != victim && after[i].Workers != before[i].Workers+1 {
			t.Fatalf("shard %d has %d workers after the drain, want %d", i, after[i].Workers, before[i].Workers+1)
		}
	}
	resps, err = f.Process(reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkEcho(t, reqs, resps)
}

// TestDeterministicFleetReplay runs an identical fleet lifecycle —
// serve, drain, serve again, establish a cross-machine attested
// channel, transfer both ways — on two independently built fleets and
// requires bit-identical observables: responses, session placement,
// channel binding, transferred bytes, and every machine's modeled
// per-core cycle counters.
func TestDeterministicFleetReplay(t *testing.T) {
	type observables struct {
		resps1, resps2 [][]byte
		placement      []string
		binding        [32]byte
		msgs           [][]byte
		cycles         []uint64
		trace          string
		metrics        string
	}
	run := func() observables {
		f, err := sanctorum.NewFleet(sanctorum.FleetOptions{Kind: sanctorum.Sanctum, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var o observables
		reqs := fleetRequests(36, 12)
		// Tracing rides along: the first request of the first wave
		// carries a trace context through every layer, and because span
		// stamps are simulated cycles the rendered trace — like every
		// number in the metrics snapshot — must replay bit-identically.
		tr := f.TraceNextRequest()
		if o.resps1, err = f.Process(reqs); err != nil {
			t.Fatal(err)
		}
		o.trace = tr.Render()
		if _, err := f.Drain(1); err != nil {
			t.Fatal(err)
		}
		if o.resps2, err = f.Process(reqs); err != nil {
			t.Fatal(err)
		}
		for i := range reqs {
			s, _ := f.Where(reqs[i].Session)
			o.placement = append(o.placement, fmt.Sprintf("%x:%d", reqs[i].Session, s))
		}
		ch, err := f.Connect(0, 2)
		if err != nil {
			t.Fatal(err)
		}
		o.binding = ch.Binding
		for _, dir := range []struct {
			from int
			msg  string
		}{{0, "fleet ping"}, {2, "fleet pong"}} {
			got, err := ch.Transfer(dir.from, []byte(dir.msg))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != dir.msg {
				t.Fatalf("transfer from %d delivered %q", dir.from, got)
			}
			o.msgs = append(o.msgs, got)
		}
		for s := 0; s < f.NumShards(); s++ {
			for _, c := range f.Host(s).Machine.Cores {
				o.cycles = append(o.cycles, c.CPU.Cycles)
			}
		}
		o.metrics = f.Telemetry().Snapshot().Text()
		return o
	}
	a, b := run(), run()
	if fmt.Sprint(a.resps1) != fmt.Sprint(b.resps1) || fmt.Sprint(a.resps2) != fmt.Sprint(b.resps2) {
		t.Fatal("responses diverged between replays")
	}
	if fmt.Sprint(a.placement) != fmt.Sprint(b.placement) {
		t.Fatalf("session placement diverged:\n%v\n%v", a.placement, b.placement)
	}
	if a.binding != b.binding {
		t.Fatalf("channel binding diverged: %x vs %x", a.binding, b.binding)
	}
	if fmt.Sprint(a.msgs) != fmt.Sprint(b.msgs) {
		t.Fatal("transferred messages diverged")
	}
	if fmt.Sprint(a.cycles) != fmt.Sprint(b.cycles) {
		t.Fatalf("modeled cycles diverged:\n%v\n%v", a.cycles, b.cycles)
	}
	if a.trace != b.trace {
		t.Fatalf("traced-request spans diverged between replays:\n%s\nvs\n%s", a.trace, b.trace)
	}
	if a.metrics != b.metrics {
		t.Fatalf("metrics snapshots diverged between replays:\n%s\nvs\n%s", a.metrics, b.metrics)
	}
}

// TestFleetParallelServing serves through four shards concurrently —
// one goroutine per shard, each shard's scheduler itself parallel —
// which puts the routing tier's counters and the per-shard gateways
// under -race in CI.
func TestFleetParallelServing(t *testing.T) {
	f, err := sanctorum.NewFleet(sanctorum.FleetOptions{
		Kind:   sanctorum.Sanctum,
		Shards: 4,
		Config: sanctorum.FleetConfig{
			Parallel: true,
			Sched: sanctorum.SchedConfig{
				Mode:          sanctorum.Parallel,
				QuantumCycles: 10_000,
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reqs := fleetRequests(128, 32)
	resps, err := f.Process(reqs)
	if err != nil {
		t.Fatal(err)
	}
	checkEcho(t, reqs, resps)
	if f.Served != 128 {
		t.Fatalf("fleet served %d, want 128", f.Served)
	}
	// The routing tier's and the gateways' fields are the only copy of
	// their numbers; the registry reads them. This traffic spills, so
	// the spill read is pinned to a nonzero count.
	snap := f.Telemetry().Snapshot()
	if route := snap.Counters["fleet.route.spill"]; f.Spills == 0 || route != uint64(f.Spills) {
		t.Fatalf("fleet.route.spill %d, Fleet.Spills %d: want equal and nonzero", route, f.Spills)
	}
	served := 0
	for _, st := range f.Stats() {
		served += st.Served
	}
	if got := snap.Counters["os.gateway.served"]; got != uint64(served) {
		t.Fatalf("os.gateway.served %d, shard gateways served %d", got, served)
	}
}

// fleetServeAllocs is the exact number of heap objects one
// Fleet.Process of fleet-kv's shape allocates (Go 1.24): the fleet's
// response slice, and per shard the gateway's response slice and
// arena. Routing an established session, the per-shard batches,
// sends, recvs, the wave's scheduler, the wakes, the workers' ECALLs
// and their trap records allocate nothing. Gated exactly, as
// gatewayServeAllocs.
const fleetServeAllocs = 5

// TestFleetServeAllocs pins the allocations of one Fleet.Process of 64
// KV requests over 16 established sessions on a 2-shard Sanctum fleet
// with the serial (deterministic) shard loop.
func TestFleetServeAllocs(t *testing.T) {
	f, err := sanctorum.NewFleet(sanctorum.FleetOptions{
		Kind:   sanctorum.Sanctum,
		Shards: 2,
		Config: sanctorum.FleetConfig{Workload: "kv"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reqs := make([]sanctorum.FleetRequest, 64)
	for i := range reqs {
		key := uint64(i % 16)
		op := uint64(enclaves.RingOpPut)
		if i%4 == 3 {
			op = enclaves.RingOpGet
		}
		reqs[i] = sanctorum.FleetRequest{
			Session: key * 0x9E3779B97F4A7C15,
			Payload: enclaves.RingKVRequest(op, key, uint64(i)),
		}
	}
	// Warm up: the first calls establish the sessions and let the
	// workers' hot loops reach the block engine, whose compilations
	// allocate once per site.
	for i := 0; i < 50; i++ {
		if _, err := f.Process(reqs); err != nil {
			t.Fatal(err)
		}
	}
	used := 0
	for _, st := range f.Stats() {
		if st.Sessions > 0 {
			used++
		}
	}
	if used != 2 {
		t.Fatalf("sessions on %d of 2 shards", used)
	}
	serve := func() {
		if _, err := f.Process(reqs); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, serve); got != fleetServeAllocs {
		t.Fatalf("one Fleet.Process allocates %.2f objects, want exactly %d", got, fleetServeAllocs)
	}
}
