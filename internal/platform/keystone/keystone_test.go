package keystone

import (
	"testing"

	"sanctorum/internal/hw/cache"
	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/pmp"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/os"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/sm/boot"
)

func newMachine(t *testing.T) (*machine.Machine, *Platform) {
	t.Helper()
	cfg := machine.DefaultConfig(machine.IsolationKeystone)
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	smRegion := cfg.DRAM.RegionCount - 1
	return m, New(cfg.DRAM, []int{smRegion})
}

func TestOSViewDeniesSMAndEnclaveRegions(t *testing.T) {
	m, p := newMachine(t)
	c := m.Cores[0]
	smRegion := m.DRAM.RegionCount - 1
	encRegion := 4

	p.NoteEnclaveRegions(dram.Bitmap(0).Set(encRegion))
	osSet := m.DRAM.Full().Clear(smRegion).Clear(encRegion)
	if err := p.ApplyOSView(c, osSet); err != nil {
		t.Fatal(err)
	}
	if c.PMP.Check(m.DRAM.Base(smRegion), 8, pmp.R, pmp.ModeS) {
		t.Fatal("OS view grants access to the SM region")
	}
	if c.PMP.Check(m.DRAM.Base(encRegion), 8, pmp.R, pmp.ModeS) {
		t.Fatal("OS view grants access to an enclave-owned region")
	}
	if !c.PMP.Check(m.DRAM.Base(1), 8, pmp.R|pmp.W, pmp.ModeS) {
		t.Fatal("OS view denies an OS-owned region")
	}
}

func TestEnclaveViewOpensOwnRegionsOnly(t *testing.T) {
	m, p := newMachine(t)
	c := m.Cores[0]
	smRegion := m.DRAM.RegionCount - 1
	own := dram.Bitmap(0).Set(6)
	other := dram.Bitmap(0).Set(7)
	p.NoteEnclaveRegions(own | other)

	if err := p.ApplyEnclaveView(c, sm.EnclaveView{
		RootPPN: 99,
		Regions: own,
	}); err != nil {
		t.Fatal(err)
	}
	if c.Satp != 99 {
		t.Fatalf("enclave satp %d", c.Satp)
	}
	if !c.PMP.Check(m.DRAM.Base(6), 8, pmp.R|pmp.W|pmp.X, pmp.ModeU) {
		t.Fatal("enclave denied its own region")
	}
	if c.PMP.Check(m.DRAM.Base(7), 8, pmp.R, pmp.ModeU) {
		t.Fatal("enclave granted another enclave's region")
	}
	if c.PMP.Check(m.DRAM.Base(smRegion), 8, pmp.R, pmp.ModeU) {
		t.Fatal("enclave granted the SM region")
	}
}

func TestRefreshOSRegionsRecomputesDenySet(t *testing.T) {
	m, p := newMachine(t)
	c := m.Cores[0]
	smRegion := m.DRAM.RegionCount - 1
	// Regions 2 and 3 leave the OS set (granted away): they must become
	// inaccessible on refresh without a full ApplyOSView.
	osSet := m.DRAM.Full().Clear(smRegion).Clear(2).Clear(3)
	if err := p.RefreshOSRegions(c, osSet); err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{2, 3, smRegion} {
		if c.PMP.Check(m.DRAM.Base(r), 8, pmp.R, pmp.ModeS) {
			t.Fatalf("refresh left region %d accessible", r)
		}
	}
	if !c.PMP.Check(m.DRAM.Base(1), 8, pmp.R, pmp.ModeS) {
		t.Fatal("refresh revoked an OS-owned region")
	}
}

// TestPMPEntryExhaustion models the real Keystone limitation: more
// protected regions than PMP entries cannot be expressed.
func TestPMPEntryExhaustion(t *testing.T) {
	m, p := newMachine(t)
	c := m.Cores[0]
	var deny dram.Bitmap
	for r := 0; r < pmp.NumEntries; r++ { // denies + catch-all > NumEntries
		deny = deny.Set(r)
	}
	p.NoteEnclaveRegions(deny)
	if err := p.ApplyOSView(c, m.DRAM.Full()&^deny); err == nil {
		t.Fatal("programming more deny entries than the PMP holds succeeded")
	}
}

// TestUnifiedABIOnKeystone drives the enclave-build sequence over the
// unified call ABI on the PMP backend: the batched client path must
// produce the canonical measurement, and a granted region must vanish
// from the OS's PMP-checked view.
// TestCleanRegionScrubsMemoryAndCaches cleans a region on Keystone's
// shared LLC: its memory is zeroed, its lines leave the L2 and every
// L1, and every line of any other region stays exactly as it was.
func TestCleanRegionScrubsMemoryAndCaches(t *testing.T) {
	m, p := newMachine(t)
	r := 2
	base, size := m.DRAM.Base(r), m.DRAM.RegionSize()
	if err := m.Mem.WriteBytes(base+size-1, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	caches := map[string]*cache.Cache{"L2": m.L2, "core 0 L1": m.Cores[0].L1, "core 1 L1": m.Cores[1].L1}
	before := map[string][]cache.LineState{}
	for name, c := range caches {
		for q := 0; q < m.DRAM.RegionCount; q++ {
			for k := uint64(0); k < 8; k++ {
				c.Access(m.DRAM.Base(q) + k*size/8 + k*64)
			}
		}
		for _, pa := range []uint64{base - 64, base, base + size - 64, base + size} {
			c.Access(pa)
		}
		before[name] = c.Snapshot()
	}

	if err := p.CleanRegion(m, r); err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if err := m.Mem.ReadBytes(base+size-1, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 {
		t.Fatalf("region contents survived cleaning: %x", b)
	}
	for name, c := range caches {
		if c.Probe(base) || c.Probe(base+size-64) {
			t.Fatalf("%s: a line of region %d survived cleaning", name, r)
		}
		if !c.Probe(base-64) || !c.Probe(base+size) {
			t.Fatalf("%s: a neighbouring region's line was flushed", name)
		}
		after, flushed := c.Snapshot(), 0
		for i, was := range before[name] {
			if was.Resident && m.DRAM.RegionOf(was.Tag<<6) == r {
				if after[i].Resident {
					t.Fatalf("%s: line %#x of region %d survived cleaning", name, was.Tag<<6, r)
				}
				flushed++
				continue
			}
			if after[i] != was {
				t.Fatalf("%s: way %d outside region %d changed: %+v -> %+v", name, i, r, was, after[i])
			}
		}
		if flushed == 0 {
			t.Fatalf("%s held no line of region %d: the check is vacuous", name, r)
		}
	}
}

func TestUnifiedABIOnKeystone(t *testing.T) {
	m, p := newMachine(t)
	mfr := boot.NewManufacturer("acme", []byte("seed"))
	dev := mfr.Provision("dev", []byte("root-secret"))
	id, err := dev.Boot([]byte("keystone abi test"))
	if err != nil {
		t.Fatal(err)
	}
	mon, err := sm.New(sm.Config{
		Machine: m, Platform: p, Identity: id,
		SMRegions: []int{m.DRAM.RegionCount - 1},
	})
	if err != nil {
		t.Fatal(err)
	}
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
	st, owner, err := o.SM.RegionInfo(3)
	if err != nil || st != api.RegionOwned || owner != built.EID {
		t.Fatalf("region 3 after grant: state=%v owner=%#x err=%v", st, owner, err)
	}
	if err := o.WriteOwned(m.DRAM.Base(3), []byte{1}); err == nil {
		t.Fatal("OS wrote into the enclave-owned region despite PMP")
	}
	resp := mon.Dispatch(api.Request{Caller: built.EID, Call: api.CallMyEnclaveID})
	if resp.Status != api.ErrUnauthorized {
		t.Fatalf("forged enclave caller: %v, want ErrUnauthorized", resp.Status)
	}
}
