package smtap_test

import (
	"testing"

	"sanctorum"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/isa"
	"sanctorum/internal/sm/api"
)

// TestTapZeroAlloc pins the tap's allocation behaviour: with telemetry
// on, a steady-state host call and an enclave ECALL cross the tap
// without allocating, so observability cannot put heap traffic on the
// monitor-call hot path (DESIGN.md §13). The ECALL is a ring send from
// an entered enclave, trapped straight into the machine's firmware;
// the host call is the recv that drains it, so each round leaves the
// ring as it found it. Only an ECALL from a running enclave counts.
func TestTapZeroAlloc(t *testing.T) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		t.Fatal(err)
	}
	l := enclaves.DefaultLayout()
	spec, err := enclaves.Spec(l, enclaves.Adder(l), nil, sys.OS.FreeRegions()[:1], nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := sys.BuildEnclave(spec)
	if err != nil {
		t.Fatal(err)
	}
	ring, err := sys.OS.AllocMetaPage()
	if err != nil {
		t.Fatal(err)
	}
	out, err := sys.OS.AllocPagePA()
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.OS.SM.RingCreate(ring, e.EID, api.DomainOS, 8); err != nil {
		t.Fatal(err)
	}
	if st := sys.OS.EnterEnclave(0, e.EID, e.TIDs[0]); st != api.OK {
		t.Fatal(st)
	}
	c := sys.Machine.Cores[0]
	tr := &isa.Trap{Cause: isa.CauseECallU}
	ecall := func() {
		c.CPU.SetReg(isa.RegA7, uint64(api.CallRingSend))
		c.CPU.SetReg(isa.RegA0, ring)
		c.CPU.SetReg(isa.RegA1, l.EvBase) // one message read from the code page
		c.CPU.SetReg(isa.RegA2, 1)
		if d := sys.Machine.Firmware.HandleTrap(c, tr); d != machine.DispResume || c.CPU.Reg(isa.RegA0) != uint64(api.OK) {
			t.Fatalf("ring send ECALL: disposition %v, status %v", d, api.Error(c.CPU.Reg(isa.RegA0)))
		}
	}
	host := func() {
		if n, err := sys.OS.SM.RingRecv(ring, out, 1); err != nil || n != 1 {
			t.Fatalf("host recv: %d, %v", n, err)
		}
	}
	// AllocsPerRun runs the round once more to warm up: 1001 of each.
	if avg := testing.AllocsPerRun(1000, func() { ecall(); host() }); avg != 0 {
		t.Fatalf("a tapped ECALL and host call allocate %.2f objects, want 0", avg)
	}
	snap := sys.Telemetry.Snapshot()
	for name, want := range map[string]uint64{
		"sm.call.mailbox_ring_send.count": 1001,
		"sm.call.mailbox_ring_recv.count": 1001,
	} {
		if n := snap.Counters[name]; n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
	if d := snap.Gauges["sm.ring.depth"]; d != 0 {
		t.Errorf("sm.ring.depth = %d, want 0", d)
	}

	// An ECALL on a core running the OS is a process syscall the
	// monitor only forwards: no monitor call, so nothing is counted.
	osCore := sys.Machine.Cores[1]
	osCore.CPU.SetReg(isa.RegA7, uint64(api.CallRingSend))
	if d := sys.Machine.Firmware.HandleTrap(osCore, tr); d != machine.DispReturnToOS {
		t.Fatalf("process syscall: disposition %v, want a return to the OS", d)
	}
	if n := sys.Telemetry.Snapshot().Counters["sm.call.mailbox_ring_send.count"]; n != 1001 {
		t.Errorf("after a process syscall sm.call.mailbox_ring_send.count = %d, want 1001", n)
	}
}
