package machine

import (
	"errors"
	"testing"

	"sanctorum/internal/asm"
	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pmp"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
)

// recordingFirmware routes traps to a closure, defaulting to return-to-OS.
type recordingFirmware struct {
	traps  []*isa.Trap
	handle func(c *Core, tr *isa.Trap) Disposition
}

func (f *recordingFirmware) HandleTrap(c *Core, tr *isa.Trap) Disposition {
	// Traps arrive in reusable per-core buffers; copy before retaining.
	t := *tr
	f.traps = append(f.traps, &t)
	if f.handle != nil {
		return f.handle(c, tr)
	}
	return DispReturnToOS
}

func smallConfig(kind IsolationKind) Config {
	cfg := DefaultConfig(kind)
	cfg.DRAM = dram.Layout{RegionShift: 16, RegionCount: 64} // 64 KiB regions, 4 MiB total
	return cfg
}

func newTestMachine(t *testing.T, kind IsolationKind) (*Machine, *recordingFirmware) {
	t.Helper()
	m, err := New(smallConfig(kind))
	if err != nil {
		t.Fatal(err)
	}
	fw := &recordingFirmware{}
	m.Firmware = fw
	return m, fw
}

// loadAt assembles a program into physical memory at pa.
func loadAt(t *testing.T, m *Machine, pa uint64, p *asm.Program, base uint64) []byte {
	t.Helper()
	bin, err := p.Assemble(base)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.WriteBytes(pa, bin); err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestBareModeExecution(t *testing.T) {
	m, _ := newTestMachine(t, IsolationNone)
	p := asm.New()
	p.Li(1, 6).Li(2, 7).I(isa.OpMUL, 3, 1, 2, 0).Halt()
	loadAt(t, m, 0x1000, p, 0x1000)
	c := m.Cores[0]
	c.CPU.PC = 0x1000
	res, err := m.Run(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopHalt {
		t.Fatalf("stop reason = %v", res.Reason)
	}
	if c.CPU.Regs[3] != 42 {
		t.Fatalf("x3 = %d", c.CPU.Regs[3])
	}
}

// buildUserSpace maps a U-mode program at va using page tables placed
// in physical pages starting at tablePA.
func buildUserSpace(t *testing.T, m *Machine, codePA, dataPA, tableBase uint64) (root uint64, codeVA, dataVA uint64) {
	t.Helper()
	next := tableBase >> mem.PageBits
	alloc := func() (uint64, error) { p := next; next++; return p, nil }
	b, err := pt.NewBuilder(m.Mem, alloc)
	if err != nil {
		t.Fatal(err)
	}
	codeVA, dataVA = uint64(0x40000000), uint64(0x50000000)
	if err := b.Map(codeVA, codePA, pt.R|pt.X|pt.U); err != nil {
		t.Fatal(err)
	}
	if err := b.Map(dataVA, dataPA, pt.R|pt.W|pt.U); err != nil {
		t.Fatal(err)
	}
	return b.Root, codeVA, dataVA
}

func TestPagedUserExecution(t *testing.T) {
	m, _ := newTestMachine(t, IsolationNone)
	root, codeVA, dataVA := buildUserSpace(t, m, 0x10000, 0x11000, 0x20000)
	p := asm.New()
	p.Li64(1, dataVA)
	p.Li(2, 1234)
	p.I(isa.OpSD, 0, 1, 2, 0)
	p.I(isa.OpLD, 3, 1, 0, 0)
	p.Halt()
	loadAt(t, m, 0x10000, p, codeVA)

	c := m.Cores[0]
	c.Satp = root
	c.CPU.PC = codeVA
	c.CPU.Mode = isa.PrivU
	res, err := m.Run(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopHalt {
		t.Fatalf("stop = %+v", res)
	}
	if c.CPU.Regs[3] != 1234 {
		t.Fatalf("loaded %d", c.CPU.Regs[3])
	}
	// The store went to the mapped physical page.
	v, _ := m.Mem.Load(0x11000, 8)
	if v != 1234 {
		t.Fatalf("phys value = %d", v)
	}
	if c.TLB.Hits == 0 {
		t.Error("TLB never hit during paged execution")
	}
}

func TestPageFaultTrapsToFirmware(t *testing.T) {
	m, fw := newTestMachine(t, IsolationNone)
	root, codeVA, _ := buildUserSpace(t, m, 0x10000, 0x11000, 0x20000)
	p := asm.New()
	p.Li64(1, 0x60000000) // unmapped
	p.I(isa.OpLD, 2, 1, 0, 0)
	p.Halt()
	loadAt(t, m, 0x10000, p, codeVA)
	c := m.Cores[0]
	c.Satp = root
	c.CPU.PC = codeVA
	c.CPU.Mode = isa.PrivU
	res, err := m.Run(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopReturnToOS {
		t.Fatalf("stop = %+v", res)
	}
	if len(fw.traps) != 1 || fw.traps[0].Cause != isa.CauseLoadPageFault {
		t.Fatalf("traps = %+v", fw.traps)
	}
	if fw.traps[0].Value != 0x60000000 {
		t.Fatalf("tval = %#x", fw.traps[0].Value)
	}
}

func TestSanctumRegionIsolation(t *testing.T) {
	m, _ := newTestMachine(t, IsolationSanctum)
	c := m.Cores[0]
	// OS owns regions 0 and 1 only; bare translation.
	c.OSRegions = dram.Bitmap(0).Set(0).Set(1)
	if _, err := c.LoadAs(isa.PrivS, 0x0000, 8); err != nil {
		t.Fatalf("in-region access denied: %v", err)
	}
	if _, err := c.LoadAs(isa.PrivS, 2*m.DRAM.RegionSize(), 8); err == nil {
		t.Fatal("out-of-region S-mode access allowed")
	}
	// M-mode (the SM itself) bypasses region checks.
	if _, err := c.LoadAs(isa.PrivM, 2*m.DRAM.RegionSize(), 8); err != nil {
		t.Fatalf("M-mode access denied: %v", err)
	}
}

func TestSanctumPrivateWalk(t *testing.T) {
	m, _ := newTestMachine(t, IsolationSanctum)
	c := m.Cores[0]
	regSize := m.DRAM.RegionSize()

	// OS page tables in region 0 map a shared page; enclave tables in
	// region 2 map the enclave's private page in region 2.
	osRoot, _, _ := buildUserSpace(t, m, 0x10000, 0x11000, 0x4000)

	encBase := 2 * regSize
	next := (encBase + 0x4000) >> mem.PageBits
	alloc := func() (uint64, error) { p := next; next++; return p, nil }
	b, err := pt.NewBuilder(m.Mem, alloc)
	if err != nil {
		t.Fatal(err)
	}
	const evBase = uint64(0x7000000000 & pt.VAMask & ^uint64(0xFFFFFFF))
	privVA := evBase | 0x1000
	if err := b.Map(privVA, encBase, pt.R|pt.W|pt.U); err != nil {
		t.Fatal(err)
	}

	c.Satp = osRoot
	c.ESatp = b.Root
	c.EvBase = evBase
	c.EvMask = ^uint64(0xFFFFFFF) & pt.VAMask
	c.OSRegions = dram.Bitmap(0).Set(0).Set(1)
	c.EncRegions = dram.Bitmap(0).Set(2)
	c.EnclaveMode = true

	// Enclave private access goes through the enclave root.
	if err := c.StoreAs(isa.PrivU, privVA, 8, 77); err != nil {
		t.Fatalf("private store failed: %v", err)
	}
	v, _ := m.Mem.Load(encBase, 8)
	if v != 77 {
		t.Fatalf("private store landed at %d", v)
	}
	// Enclave access outside evrange uses OS tables (shared memory).
	if _, err := c.LoadAs(isa.PrivU, 0x50000000, 8); err != nil {
		t.Fatalf("shared access failed: %v", err)
	}
	// The private page must be invisible when not in enclave mode.
	c.EnclaveMode = false
	c.TLB.Flush()
	if _, err := c.LoadAs(isa.PrivU, privVA, 8); err == nil {
		t.Fatal("enclave VA resolved outside enclave mode")
	}
}

func TestSanctumWalkConfinedToRegions(t *testing.T) {
	m, _ := newTestMachine(t, IsolationSanctum)
	c := m.Cores[0]
	// Page tables live in region 3, which the OS does NOT own: the walk
	// itself must be rejected, not just the final access.
	regSize := m.DRAM.RegionSize()
	next := (3 * regSize) >> mem.PageBits
	alloc := func() (uint64, error) { p := next; next++; return p, nil }
	b, err := pt.NewBuilder(m.Mem, alloc)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Map(0x40000000, 0, pt.R|pt.U); err != nil {
		t.Fatal(err)
	}
	c.Satp = b.Root
	c.OSRegions = dram.Bitmap(0).Set(0)
	_, err = c.LoadAs(isa.PrivU, 0x40000000, 8)
	if err == nil {
		t.Fatal("walk through foreign region succeeded")
	}
	var tr *isa.Trap
	if !errors.As(err, &tr) || tr.Cause != isa.CauseLoadAccess {
		t.Fatalf("err = %v, want load access fault", err)
	}
}

func TestKeystonePMPEnforcement(t *testing.T) {
	m, _ := newTestMachine(t, IsolationKeystone)
	c := m.Cores[0]
	// White-list one 64 KiB range for S/U mode.
	if err := c.PMP.Configure(0, pmp.Entry{Valid: true, Base: 0x10000, Size: 0x10000, Perm: pmp.R | pmp.W | pmp.X}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.LoadAs(isa.PrivS, 0x10000, 8); err != nil {
		t.Fatalf("white-listed access denied: %v", err)
	}
	if _, err := c.LoadAs(isa.PrivS, 0x30000, 8); err == nil {
		t.Fatal("non-white-listed access allowed")
	}
	if _, err := c.LoadAs(isa.PrivM, 0x30000, 8); err != nil {
		t.Fatalf("M-mode denied: %v", err)
	}
}

func TestTimerInterruptForcesTrap(t *testing.T) {
	m, fw := newTestMachine(t, IsolationNone)
	// Infinite loop at 0x1000.
	p := asm.New()
	p.Label("spin").J("spin")
	loadAt(t, m, 0x1000, p, 0x1000)
	c := m.Cores[0]
	c.CPU.PC = 0x1000
	c.TimerCmp = 50
	res, err := m.Run(0, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopReturnToOS {
		t.Fatalf("stop = %+v", res)
	}
	if len(fw.traps) != 1 || fw.traps[0].Cause != isa.CauseTimerInterrupt {
		t.Fatalf("traps = %+v", fw.traps)
	}
	if c.TimerCmp != 0 {
		t.Error("timer not one-shot")
	}
}

func TestExternalInterrupt(t *testing.T) {
	m, fw := newTestMachine(t, IsolationNone)
	p := asm.New()
	p.Label("spin").J("spin")
	loadAt(t, m, 0x1000, p, 0x1000)
	c := m.Cores[0]
	c.CPU.PC = 0x1000
	m.InterruptCore(0)
	res, err := m.Run(0, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopReturnToOS || len(fw.traps) != 1 || fw.traps[0].Cause != isa.CauseExternalInterrupt {
		t.Fatalf("res=%+v traps=%+v", res, fw.traps)
	}
}

func TestEcallResumeContinues(t *testing.T) {
	m, fw := newTestMachine(t, IsolationNone)
	fw.handle = func(c *Core, tr *isa.Trap) Disposition {
		if tr.Cause == isa.CauseECallU {
			// Model an SM API call: write result, skip the ECALL.
			c.CPU.SetReg(isa.RegA0, 999)
			c.CPU.PC += isa.InstrSize
			return DispResume
		}
		return DispReturnToOS
	}
	p := asm.New()
	p.Li(isa.RegA7, 1)
	p.Ecall()
	p.Mv(5, isa.RegA0)
	p.Halt()
	loadAt(t, m, 0x1000, p, 0x1000)
	c := m.Cores[0]
	c.CPU.PC = 0x1000
	res, err := m.Run(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopHalt {
		t.Fatalf("stop = %+v", res)
	}
	if c.CPU.Regs[5] != 999 {
		t.Fatalf("ecall result = %d", c.CPU.Regs[5])
	}
}

func TestNoFirmwareIsError(t *testing.T) {
	m, _ := newTestMachine(t, IsolationNone)
	m.Firmware = nil
	p := asm.New()
	p.Ecall()
	loadAt(t, m, 0x1000, p, 0x1000)
	m.Cores[0].CPU.PC = 0x1000
	_, err := m.Run(0, 10)
	if !errors.Is(err, ErrNoFirmware) {
		t.Fatalf("err = %v", err)
	}
}

func TestDMADefaultDeny(t *testing.T) {
	m, _ := newTestMachine(t, IsolationNone)
	if err := m.DMATransfer(0x1000, 0x2000, 64); err == nil {
		t.Fatal("DMA allowed with no policy installed")
	}
	m.DMAAllowed = func(pa, n uint64) bool { return pa >= 0x10000 }
	if err := m.DMATransfer(0x1000, 0x20000, 64); err == nil {
		t.Fatal("DMA from protected range allowed")
	}
	m.Mem.Store(0x10000, 8, 4242)
	if err := m.DMATransfer(0x10000, 0x20000, 64); err != nil {
		t.Fatalf("permitted DMA denied: %v", err)
	}
	v, _ := m.Mem.Load(0x20000, 8)
	if v != 4242 {
		t.Fatalf("DMA copied %d", v)
	}
}

// TestDMATransferRefusesWrappingRange: a transfer whose length wraps
// the source range past 2^64 into region 0 comes back as the filter's
// refusal instead of reaching the copy, with region 7 outside the
// allowed set between its first and its wrapped last byte.
func TestDMATransferRefusesWrappingRange(t *testing.T) {
	m, _ := newTestMachine(t, IsolationNone)
	l := m.DRAM
	allowed := l.Full().Clear(7)
	m.DMAAllowed = func(pa, n uint64) bool { return allowed.ContainsRange(l, pa, n) }
	if err := m.DMATransfer(l.Base(5), l.Base(6), ^uint64(0)-l.Base(5)+17); err == nil {
		t.Fatal("wrapping DMA transfer allowed")
	}
}

func TestClearMicroarch(t *testing.T) {
	m, _ := newTestMachine(t, IsolationNone)
	c := m.Cores[0]
	c.L1.Access(0x1000)
	root, codeVA, _ := buildUserSpace(t, m, 0x10000, 0x11000, 0x20000)
	c.Satp = root
	if _, err := c.LoadAs(isa.PrivU, codeVA, 8); err != nil {
		t.Fatal(err)
	}
	if c.TLB.Live() == 0 || c.L1.Live() == 0 {
		t.Fatal("setup failed to populate microarch state")
	}
	c.ClearMicroarch()
	if c.TLB.Live() != 0 || c.L1.Live() != 0 {
		t.Fatal("microarchitectural state survived cleaning")
	}
	c.CPU.Regs[7] = 9
	c.ClearArchState()
	if c.CPU.Regs[7] != 0 {
		t.Fatal("architectural state survived cleaning")
	}
}

func TestRunMaxSteps(t *testing.T) {
	m, _ := newTestMachine(t, IsolationNone)
	p := asm.New()
	p.Label("spin").J("spin")
	loadAt(t, m, 0x1000, p, 0x1000)
	m.Cores[0].CPU.PC = 0x1000
	res, err := m.Run(0, 25)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopMaxSteps || res.Steps != 25 {
		t.Fatalf("res = %+v", res)
	}
}

func TestConfigValidation(t *testing.T) {
	cfg := smallConfig(IsolationNone)
	cfg.Cores = 0
	if _, err := New(cfg); err == nil {
		t.Error("zero cores accepted")
	}
	cfg = smallConfig(IsolationSanctum)
	cfg.L2.Sets = 62 // not divisible by 64 regions... also not power of 2
	if _, err := New(cfg); err == nil {
		t.Error("bad L2/region combination accepted")
	}
	cfg = smallConfig(IsolationNone)
	cfg.DRAM.RegionCount = 0
	if _, err := New(cfg); err == nil {
		t.Error("bad DRAM layout accepted")
	}
}

func TestIsolationKindString(t *testing.T) {
	if IsolationNone.String() != "none" || IsolationSanctum.String() != "sanctum" || IsolationKeystone.String() != "keystone" {
		t.Error("IsolationKind strings wrong")
	}
}
