// Command enclave_service demonstrates the high-throughput messaging
// layer end to end (monitor calls 0x40–0x45, DESIGN.md §9): a
// key-value service runs inside enclave workers forked from one
// measured template, requests travel as batched mailbox-ring sends,
// parked workers wake through the monitor's park/wake protocol
// instead of OS polling, and every response comes back
// stamped by the monitor with the worker's identity and the template
// measurement — attestation-grade provenance at streaming rates.
package main

import (
	"encoding/binary"
	"fmt"
	"log"

	"sanctorum"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/sm/api"
)

func main() {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("booted: 2-core Sanctum machine, security monitor, untrusted OS")
	if v, err := sys.ABIVersion(); err != nil || v>>16 != api.VersionMajor {
		log.Fatalf("ABI version probe: %#x, %v", v, err)
	}

	// The template: a ring-serving KV store. It has no shared window —
	// all traffic is ring IPC through the monitor — so one measured
	// image serves every clone; each worker discovers its own rings via
	// get_field(enclave_rings).
	l := enclaves.DefaultLayout()
	regions := sys.OS.FreeRegions()
	spec, err := enclaves.Spec(l, enclaves.RingKVServer(l), nil, regions[:1], nil)
	if err != nil {
		log.Fatal(err)
	}
	pool, err := sys.NewPool(spec, regions[1:3], 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("template built: eid=%#x measurement=%x…\n",
		pool.Template.EID, pool.Template.Measurement[:8])

	gw, err := sys.NewGateway(pool, sanctorum.GatewayConfig{
		Workers: 2,
		Batch:   8,
		Sched:   sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("gateway up: 2 ring-served workers forked from the template, parked")

	// Each worker keeps its own private store (clones diverge through
	// COW), so a get must reach the worker that holds the key. Process
	// places request i on worker i mod the worker count, and key k is
	// request k of both phases, so its get reaches worker k mod 2: the
	// worker its put stored it on.
	var puts, gets [][]byte
	for k := uint64(0); k < 16; k++ {
		puts = append(puts, enclaves.RingKVRequest(enclaves.RingOpPut, k, 1000+k*k))
		gets = append(gets, enclaves.RingKVRequest(enclaves.RingOpGet, k, 0))
	}
	if _, err := gw.Process(puts); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("stored 16 keys across %d workers (%d scheduler waves so far)\n",
		gw.NumWorkers(), gw.Waves)
	resps, err := gw.Process(gets)
	if err != nil {
		log.Fatal(err)
	}
	for k := uint64(0); k < 16; k++ {
		v := binary.LittleEndian.Uint64(resps[k])
		fmt.Printf("get %2d → %4d", k, v)
		if (k+1)%4 == 0 {
			fmt.Println()
		} else {
			fmt.Print("   ")
		}
		if v != 1000+k*k {
			log.Fatalf("key %d read %d, want %d", k, v, 1000+k*k)
		}
	}
	fmt.Printf("served %d requests in %d waves; every response stamped with the template measurement\n",
		gw.Served, gw.Waves)

	// Shutdown: destroying the rings wakes the parked workers into
	// failing parks — their signal to exit — and the pool recycles them.
	if err := gw.Close(); err != nil {
		log.Fatal(err)
	}
	if err := pool.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("gateway closed: page refs=%d (leak-free teardown)\n",
		sys.Machine.Mem.TotalRefs())
	fmt.Println("done: batched ring IPC served a stateful enclave service with zero OS polling")
}
