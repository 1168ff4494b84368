package baseline

import (
	"testing"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/hw/tlb"
	"sanctorum/internal/os"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/sm/boot"
)

func newMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m, err := machine.New(machine.DefaultConfig(machine.IsolationNone))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestViewsCarryNoProtection pins the baseline's defining property: the
// monitor state machine runs, but the views install no isolation — the
// control arm of the E10 comparison.
func TestViewsCarryNoProtection(t *testing.T) {
	m := newMachine(t)
	p := New()
	c := m.Cores[0]
	if err := p.ApplyEnclaveView(c, sm.EnclaveView{RootPPN: 7, EvBase: 0x1000, EvMask: ^uint64(0xFFF)}); err != nil {
		t.Fatal(err)
	}
	if c.Satp != 7 || !c.EnclaveMode {
		t.Fatalf("enclave view not recorded: %+v", c)
	}
	if c.PMP != nil {
		t.Fatal("baseline machine has a PMP unit")
	}
	if err := p.ApplyOSView(c, m.DRAM.Full()); err != nil {
		t.Fatal(err)
	}
	if c.EnclaveMode || c.Satp != 0 {
		t.Fatal("OS view left enclave state")
	}
}

// newMonitor boots the monitor on m, the top region its own.
func newMonitor(t *testing.T, m *machine.Machine) *sm.Monitor {
	t.Helper()
	dev := boot.NewManufacturer("acme", []byte("seed")).Provision("dev", []byte("root-secret"))
	id, err := dev.Boot([]byte("baseline test"))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := sm.New(sm.Config{
		Machine: m, Platform: New(), Identity: id, SMRegions: []int{m.DRAM.RegionCount - 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return mon
}

// call makes an OS monitor call that must succeed.
func call(t *testing.T, mon *sm.Monitor, c api.Call, args ...uint64) {
	t.Helper()
	if st := mon.Dispatch(api.OSRequest(c, args...)).Status; st != api.OK {
		t.Fatalf("call %#x: %v", uint64(c), st)
	}
}

// TestCleanRegionStillScrubs: with nothing protected, clean_region
// still zeroes the blocked region and flushes its lines from the L2
// and from every core's L1, like every other backend.
func TestCleanRegionStillScrubs(t *testing.T) {
	m := newMachine(t)
	mon := newMonitor(t, m)
	r := 2
	call(t, mon, api.CallBlockRegion, uint64(r))
	base := m.DRAM.Base(r)
	if err := m.Mem.WriteBytes(base, []byte{0xFF}); err != nil {
		t.Fatal(err)
	}
	m.L2.Access(base)
	for _, c := range m.Cores {
		c.L1.Access(base)
		c.L1.Access(base - 64)
	}
	call(t, mon, api.CallCleanRegion, uint64(r))
	b := make([]byte, 1)
	if err := m.Mem.ReadBytes(base, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 {
		t.Fatal("contents survived cleaning")
	}
	if m.L2.Probe(base) {
		t.Fatal("L2 footprint survived cleaning")
	}
	for i, c := range m.Cores {
		if c.L1.Probe(base) {
			t.Fatalf("core %d L1 footprint survived cleaning", i)
		}
		if !c.L1.Probe(base - 64) {
			t.Fatalf("core %d lost a neighbouring region's L1 line", i)
		}
	}
}

// TestShootdownRegionFlushesTLBs: clean_region drops the region's
// translations from every core's TLB and keeps the ones into its
// neighbour.
func TestShootdownRegionFlushesTLBs(t *testing.T) {
	m := newMachine(t)
	mon := newMonitor(t, m)
	r := 4
	call(t, mon, api.CallBlockRegion, uint64(r))
	for _, c := range m.Cores {
		c.TLB.Insert(tlb.Entry{VPN: 1, PPN: m.DRAM.Base(r) >> mem.PageBits})
		c.TLB.Insert(tlb.Entry{VPN: 2, PPN: m.DRAM.Base(r+1) >> mem.PageBits})
	}
	call(t, mon, api.CallCleanRegion, uint64(r))
	for i, c := range m.Cores {
		if _, hit := c.TLB.Lookup(1); hit {
			t.Fatalf("core %d kept a shot-down translation", i)
		}
		if _, hit := c.TLB.Lookup(2); !hit {
			t.Fatalf("core %d lost an unrelated translation", i)
		}
	}
}

// TestUnifiedABIOnBaseline runs the same ABI-driven enclave build on
// the insecure control backend: the dispatch surface (call table,
// domain authorization, measurement discipline) must behave identically
// even when the platform provides no physical isolation.
func TestUnifiedABIOnBaseline(t *testing.T) {
	m := newMachine(t)
	mon := newMonitor(t, m)
	o, err := os.New(m, mon, 0, m.DRAM.RegionCount-2)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := o.ABIVersion(); err != nil || v != api.Version {
		t.Fatalf("abi version %#x (%v), want %#x", v, err, uint64(api.Version))
	}

	evBase, evMask := uint64(0x4000000000), ^uint64(1<<21-1)
	spec := &os.EnclaveSpec{
		EvBase: evBase, EvMask: evMask, Regions: []int{3},
		Pages: []os.EnclavePage{
			{VA: evBase, Perms: pt.R | pt.X, Data: []byte{0x13}},
		},
		Threads: []os.ThreadSpec{{EntryVA: evBase, StackVA: evBase + 0x2000}},
	}
	built, err := o.BuildEnclave(spec)
	if err != nil {
		t.Fatal(err)
	}
	if built.Measurement != os.ExpectedMeasurement(spec) {
		t.Fatal("ABI-built measurement does not match the replayed transcript")
	}
	// Even without physical isolation the monitor's bookkeeping — the
	// security state machine the ABI fronts — must refuse API-level
	// theft: the region reads enclave-owned and cannot be re-granted.
	st, owner, err := o.SM.RegionInfo(3)
	if err != nil || st != api.RegionOwned || owner != built.EID {
		t.Fatalf("region 3 after grant: state=%v owner=%#x err=%v", st, owner, err)
	}
	if err := o.SM.GrantRegion(3, api.DomainOS); err == nil {
		t.Fatal("re-granted an enclave-owned region through the ABI")
	}
	resp := mon.Dispatch(api.Request{Caller: built.EID, Call: api.CallMyEnclaveID})
	if resp.Status != api.ErrUnauthorized {
		t.Fatalf("forged enclave caller: %v, want ErrUnauthorized", resp.Status)
	}
}
