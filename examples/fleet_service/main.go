// Command fleet_service demonstrates the fleet layer (DESIGN.md §12):
// three independent machines — each with its own secure-booted
// monitor, manufacturer PKI, snapshot/clone pool and request gateway —
// behind one routing tier. Sessions consistent-hash onto shards; a
// shard drains by re-homing its sessions onto warmed-up clone workers
// elsewhere; and enclaves on two different machines get a private pipe
// only after a mutual remote-attestation handshake binds it to both
// machines' measurements.
package main

import (
	"fmt"
	"log"

	"sanctorum"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/sm/api"
)

func main() {
	f, err := sanctorum.NewFleet(sanctorum.FleetOptions{
		Kind:   sanctorum.Sanctum,
		Shards: 3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()

	// A wave of echo requests across 12 sessions. Each session key
	// consistent-hashes to a shard, then sticks to one worker there.
	mkReqs := func(n int) []sanctorum.FleetRequest {
		reqs := make([]sanctorum.FleetRequest, n)
		for i := range reqs {
			payload := make([]byte, api.RingMsgSize)
			payload[0] = byte(i)
			reqs[i] = sanctorum.FleetRequest{
				Session: uint64(i%12) * 0x9E3779B97F4A7C15,
				Payload: payload,
			}
		}
		return reqs
	}
	reqs := mkReqs(36)
	// Trace the first request of the wave: the context is allocated at
	// the router and rides through shard selection, gateway dispatch,
	// the enclave ring and back, every span stamped in simulated cycles
	// (DESIGN.md §13) — so this trace replays bit-identically.
	tr := f.TraceNextRequest()
	resps, err := f.Process(reqs)
	if err != nil {
		log.Fatal(err)
	}
	for i := range reqs {
		if string(resps[i]) != string(enclaves.RingEchoExpected(reqs[i].Payload)) {
			log.Fatalf("response %d wrong", i)
		}
	}
	show := func(when string) {
		fmt.Printf("%s:\n", when)
		for i, st := range f.Stats() {
			state := "live"
			if st.Draining {
				state = "draining"
			}
			fmt.Printf("  shard %d: %2d sessions, %d workers, %3d served  [%s]\n",
				i, st.Sessions, st.Workers, st.Served, state)
		}
	}
	fmt.Printf("served %d requests across %d shards\n", f.Served, f.NumShards())
	fmt.Printf("\ntrace of request 0 (cycle-stamped spans, router → enclave → response):\n")
	fmt.Print(tr.Render())
	fmt.Println()
	show("after first wave")

	// Drain shard 1: its sessions re-home onto the remaining shards'
	// consistent-hash arcs, after each inheriting shard warms one more
	// snapshot-clone worker.
	moved, err := f.Drain(1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndrained shard 1: %d sessions re-homed (warm-up before cutover)\n", moved)
	resps, err = f.Process(reqs)
	if err != nil {
		log.Fatal(err)
	}
	for i := range reqs {
		if string(resps[i]) != string(enclaves.RingEchoExpected(reqs[i].Payload)) {
			log.Fatalf("post-drain response %d wrong", i)
		}
	}
	show("after drain + second wave")

	// A cross-machine attested channel between shards 0 and 2: hellos
	// and offers travel over the fleet's untrusted wire, each side
	// verifies the other's evidence against its pinned manufacturer
	// root, and the binding commits to both transcripts.
	ch, err := f.Connect(0, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nattested channel 0↔2 established, binding %x…\n", ch.Binding[:8])
	for _, dir := range []struct {
		from int
		msg  string
	}{{0, "hello from machine 0"}, {2, "hello from machine 2"}} {
		got, err := ch.Transfer(dir.from, []byte(dir.msg))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  shard %d → peer: %q delivered and authenticated\n", dir.from, got)
	}

	// The binding is load-bearing: a wire blob sealed for this channel
	// refuses to deliver with so much as one bit flipped.
	wire, err := ch.Seal(0, []byte("tamper me"))
	if err != nil {
		log.Fatal(err)
	}
	wire[5] ^= 1
	if _, err := ch.Deliver(2, wire); err == nil {
		log.Fatal("tampered wire delivered")
	} else {
		fmt.Printf("  tampered wire refused: %v\n", err)
	}
	fmt.Printf("\nfleet totals: served=%d spills=%d rebalanced=%d\n",
		f.Served, f.Spills, f.Rebalanced)

	// End-of-run observability: one unified snapshot covers every layer
	// — routing decisions, gateway latency, ring traffic, monitor calls
	// — in a single namespace, all clocked in simulated cycles.
	snap := f.Telemetry().Snapshot()
	fmt.Println("\nend-of-run metrics (selected from the unified registry):")
	for _, name := range []string{
		"fleet.served", "fleet.route.home", "fleet.route.spill",
		"fleet.drains", "fleet.rebalanced", "os.gateway.served",
		"os.gateway.waves", "sm.call.mailbox_ring_send.count",
		"sm.call.mailbox_ring_recv.count", "sm.call.enter_enclave.count",
	} {
		fmt.Printf("  counter   %-34s %d\n", name, snap.Counters[name])
	}
	for _, name := range []string{
		"os.gateway.request.cycles", "fleet.handshake.cycles",
	} {
		h := snap.Histograms[name]
		fmt.Printf("  histogram %-34s count=%d p50=%.0f p99=%.0f (cycles)\n",
			name, h.Count, h.P50, h.P99)
	}
}
