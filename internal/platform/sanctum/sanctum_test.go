package sanctum

import (
	"testing"

	"sanctorum/internal/hw/cache"
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
	m, err := machine.New(machine.DefaultConfig(machine.IsolationSanctum))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newMonitor boots the monitor on m, the top region its own.
func newMonitor(t *testing.T, m *machine.Machine) *sm.Monitor {
	t.Helper()
	dev := boot.NewManufacturer("acme", []byte("seed")).Provision("dev", []byte("root-secret"))
	id, err := dev.Boot([]byte("sanctum test"))
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

func TestApplyViewsProgramCoreState(t *testing.T) {
	m := newMachine(t)
	p := New()
	c := m.Cores[0]

	osSet := m.DRAM.Full().Clear(7)
	if err := p.ApplyOSView(c, osSet); err != nil {
		t.Fatal(err)
	}
	if c.EnclaveMode || c.ESatp != 0 || c.EvMask != 0 || c.EncRegions != 0 {
		t.Fatalf("OS view left enclave state: %+v", c)
	}
	if c.OSRegions != osSet {
		t.Fatalf("OS regions %#x, want %#x", c.OSRegions, osSet)
	}

	view := sm.EnclaveView{
		RootPPN:   42,
		EvBase:    0x4000000000,
		EvMask:    ^uint64(1<<21 - 1),
		Regions:   m.DRAM.Full().Clear(0) & 0xF0,
		OSRegions: osSet,
	}
	if err := p.ApplyEnclaveView(c, view); err != nil {
		t.Fatal(err)
	}
	if !c.EnclaveMode || c.ESatp != 42 || c.EvBase != view.EvBase ||
		c.EncRegions != view.Regions || c.OSRegions != osSet {
		t.Fatalf("enclave view not programmed: %+v", c)
	}

	own, refreshed := view.Regions.Clear(5), osSet.Clear(3)
	if err := p.RefreshRegions(c, own, refreshed); err != nil {
		t.Fatal(err)
	}
	if c.OSRegions != refreshed || c.EncRegions != own {
		t.Fatalf("refresh installed %#x/%#x, want %#x/%#x", c.EncRegions, c.OSRegions, own, refreshed)
	}
	if !c.EnclaveMode || c.ESatp != 42 || c.EvBase != view.EvBase {
		t.Fatal("refresh disturbed the enclave view")
	}
}

// TestCleanRegionScrubsMemoryAndCaches blocks region r over the ABI,
// fills the L2 and both L1s with lines from every region — the first
// and last lines of r and of its neighbours last, so they are resident
// — then runs clean_region: r's memory is zeroed, no line of r
// survives in any cache, and every other way is exactly as it was, LRU
// stamp included.
func TestCleanRegionScrubsMemoryAndCaches(t *testing.T) {
	m := newMachine(t)
	mon := newMonitor(t, m)
	r := 3
	call(t, mon, api.CallBlockRegion, uint64(r))
	base, size := m.DRAM.Base(r), m.DRAM.RegionSize()
	if err := m.Mem.WriteBytes(base+100, []byte{0xAA, 0xBB}); err != nil {
		t.Fatal(err)
	}
	caches := map[string]*cache.Cache{"L2": m.L2, "core 0 L1": m.Cores[0].L1, "core 1 L1": m.Cores[1].L1}
	var edges []uint64 // first and last lines of r-1, r, r+1
	for q := r - 1; q <= r+1; q++ {
		edges = append(edges, m.DRAM.Base(q), m.DRAM.Base(q)+size-64)
	}
	before := map[string][]cache.LineState{}
	for name, c := range caches {
		for q := 0; q < m.DRAM.RegionCount; q++ {
			for k := uint64(0); k < 16; k++ {
				c.Access(m.DRAM.Base(q) + k*size/16 + k%4*64)
			}
		}
		for _, pa := range append(edges, base+100) {
			c.Access(pa)
		}
		before[name] = c.Snapshot()
	}

	call(t, mon, api.CallCleanRegion, uint64(r))
	b := make([]byte, 2)
	if err := m.Mem.ReadBytes(base+100, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 || b[1] != 0 {
		t.Fatalf("region contents survived cleaning: %x", b)
	}
	inR := func(tag uint64) bool { return m.DRAM.RegionOf(tag<<6) == r }
	for name, c := range caches {
		if c.Probe(base+100) || c.Probe(base) || c.Probe(base+size-64) {
			t.Fatalf("%s: a line of region %d survived cleaning", name, r)
		}
		for _, pa := range []uint64{edges[0], edges[1], edges[4], edges[5]} {
			if !c.Probe(pa) {
				t.Fatalf("%s: neighbouring line %#x was flushed", name, pa)
			}
		}
		after, flushed := c.Snapshot(), 0
		for i, was := range before[name] {
			now := after[i]
			if now.Resident && inR(now.Tag) {
				t.Fatalf("%s: line %#x of region %d survived cleaning", name, now.Tag<<6, r)
			}
			if was.Resident && inR(was.Tag) {
				flushed++
				continue
			}
			if now != was {
				t.Fatalf("%s: way %d outside region %d changed: %+v -> %+v", name, i, r, was, now)
			}
		}
		if flushed == 0 {
			t.Fatalf("%s held no line of region %d: the check is vacuous", name, r)
		}
	}
}

// TestShootdownRegionFlushesAllTLBs: clean_region drops every core's
// translations into the region — its first and last frame — and
// keeps the ones into its neighbours.
func TestShootdownRegionFlushesAllTLBs(t *testing.T) {
	m := newMachine(t)
	mon := newMonitor(t, m)
	r := 5
	call(t, mon, api.CallBlockRegion, uint64(r))
	first := m.DRAM.Base(r) >> mem.PageBits
	last := first + m.DRAM.PagesPerRegion() - 1
	for _, c := range m.Cores {
		c.TLB.Insert(tlb.Entry{VPN: 0x100, PPN: first})
		c.TLB.Insert(tlb.Entry{VPN: 0x101, PPN: last})
		c.TLB.Insert(tlb.Entry{VPN: 0x200, PPN: first - 1})
		c.TLB.Insert(tlb.Entry{VPN: 0x201, PPN: last + 1})
	}
	call(t, mon, api.CallCleanRegion, uint64(r))
	for i, c := range m.Cores {
		for _, vpn := range []uint64{0x100, 0x101} {
			if _, hit := c.TLB.Lookup(vpn); hit {
				t.Fatalf("core %d kept translation %#x into the cleaned region", i, vpn)
			}
		}
		for _, vpn := range []uint64{0x200, 0x201} {
			if _, hit := c.TLB.Lookup(vpn); !hit {
				t.Fatalf("core %d lost translation %#x into a neighbouring region", i, vpn)
			}
		}
	}
}

// TestUnifiedABIOnSanctum drives the full enclave-build sequence over
// the monitor's unified call ABI — lone calls through the smcall
// client — on the Sanctum backend, and checks the dispatch
// layer's per-domain authorization holds with region isolation active.
func TestUnifiedABIOnSanctum(t *testing.T) {
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
			{VA: evBase + 0x1000, Perms: pt.R | pt.W, Data: []byte("data")},
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
	// The granted region left the OS domain on this backend: the
	// monitor reports it enclave-owned and the per-core Sanctum view
	// lost it.
	st, owner, err := o.SM.RegionInfo(3)
	if err != nil || st != api.RegionOwned || owner != built.EID {
		t.Fatalf("region 3 after grant: state=%v owner=%#x err=%v", st, owner, err)
	}
	if m.Cores[0].OSRegions.Has(3) {
		t.Fatal("core 0 OS view still contains the enclave's region")
	}
	if err := o.WriteOwned(m.DRAM.Base(3), []byte{1}); err == nil {
		t.Fatal("OS wrote into the enclave-owned region")
	}
	// The host cannot speak for the enclave through the same surface.
	resp := mon.Dispatch(api.Request{Caller: built.EID, Call: api.CallMyEnclaveID})
	if resp.Status != api.ErrUnauthorized {
		t.Fatalf("forged enclave caller: %v, want ErrUnauthorized", resp.Status)
	}
}
