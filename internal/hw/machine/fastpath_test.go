package machine

import (
	"testing"

	"sanctorum/internal/asm"
	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pmp"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
)

// The fast-path execution engine (decoded-instruction cache, indexed
// TLB with last-translation caches, page windows) must be
// architecturally invisible: same final state, same modeled cycles,
// same TLB and cache statistics as the reference engine, including
// under self-modifying code and translation teardown. These tests pin
// that invariant.

// newEquivMachine builds one machine of each engine flavor with an
// identical paged S-mode workload loaded.
func newEquivMachine(t *testing.T, kind IsolationKind, reference bool, prog *asm.Program) (*Machine, *Core) {
	t.Helper()
	cfg := smallConfig(kind)
	cfg.DisableFastPath = reference
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next := uint64(0x20000) >> mem.PageBits
	alloc := func() (uint64, error) { p := next; next++; return p, nil }
	b, err := pt.NewBuilder(m.Mem, alloc)
	if err != nil {
		t.Fatal(err)
	}
	const codeVA, dataVA = uint64(0x10000), uint64(0x40000)
	// Two code pages (writable, for the self-modifying sequence) and
	// three data pages to force TLB fills beyond the first access.
	for p := uint64(0); p < 2; p++ {
		if err := b.Map(codeVA+p*mem.PageSize, 0x10000+p*mem.PageSize, pt.R|pt.W|pt.X); err != nil {
			t.Fatal(err)
		}
	}
	for p := uint64(0); p < 3; p++ {
		if err := b.Map(dataVA+p*mem.PageSize, 0x50000+p*mem.PageSize, pt.R|pt.W); err != nil {
			t.Fatal(err)
		}
	}
	bin, err := prog.Assemble(codeVA)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.WriteBytes(0x10000, bin); err != nil {
		t.Fatal(err)
	}
	c := m.Cores[0]
	c.Satp = b.Root
	c.CPU.Mode = isa.PrivS
	c.CPU.PC = codeVA
	switch kind {
	case IsolationSanctum:
		c.OSRegions = m.DRAM.Full()
	case IsolationKeystone:
		if err := c.PMP.Configure(0, pmp.Entry{
			Valid: true, Base: 0, Size: m.Mem.Size(), Perm: pmp.R | pmp.W | pmp.X,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return m, c
}

// mixedWorkload is the equivalence program: ALU traffic, loads and
// stores across several pages, branches, a cycle-counter read, a
// top-tested loop copying data page 0 to data page 1 (so loads and
// stores alternate between two lines and two pages on every
// iteration), a self-modifying store over upcoming code, an ECALL and a
// misaligned load (both skipped by the firmware), then HALT.
func mixedWorkload() *asm.Program {
	p := asm.New()
	p.Li64(isa.RegS0, 0x40000) // data page 0
	p.Li(isa.RegT0, 0)         // loop counter
	p.Li(isa.RegT1, 25)        // iterations
	p.Label("loop")
	// Strided stores/loads across three data pages.
	p.I(isa.OpMUL, 8, isa.RegT0, isa.RegT0, 0) // s0' = i*i (reuses x8 below)
	p.I(isa.OpANDI, 8, 8, 0, 0x1FF8)
	p.I(isa.OpADD, 8, 8, isa.RegS0, 0)
	p.I(isa.OpSD, 0, 8, isa.RegT0, 0x2000)
	p.I(isa.OpLD, 9, 8, 0, 0x2000)
	p.I(isa.OpADD, 10, 10, 9, 0)
	p.I(isa.OpRDCYCLE, 11, 0, 0, 0)
	p.I(isa.OpXOR, 12, 12, 11, 0)
	p.I(isa.OpADDI, isa.RegT0, isa.RegT0, 0, 1)
	p.Branch(isa.OpBLT, isa.RegT0, isa.RegT1, "loop")
	// Copy 512 bytes from data page 0 to data page 1.
	p.Li64(18, 0x40000)
	p.Li64(19, 0x41000)
	p.Li(isa.RegT0, 0)
	p.Li(isa.RegT1, 512)
	p.Label("copy")
	p.Branch(isa.OpBLTU, isa.RegT0, isa.RegT1, "copybody")
	p.J("copied")
	p.Label("copybody")
	p.I(isa.OpADD, 20, 18, isa.RegT0, 0)
	p.I(isa.OpLD, 20, 20, 0, 0)
	p.I(isa.OpADD, 21, 19, isa.RegT0, 0)
	p.I(isa.OpSD, 0, 21, 20, 0)
	p.I(isa.OpADDI, isa.RegT0, isa.RegT0, 0, 8)
	p.J("copy")
	p.Label("copied")
	// Self-modifying code: overwrite "patchme" (initially LI x13, 1)
	// with LI x13, 42, then execute it.
	p.La(14, "patchme")
	p.La(15, "newword")
	p.I(isa.OpLD, 16, 15, 0, 0)
	p.I(isa.OpSD, 0, 14, 16, 0)
	p.Label("patchme")
	p.Li(13, 1)
	// An ECALL and a misaligned load; the test firmware skips both.
	p.Ecall()
	p.I(isa.OpLD, 17, isa.RegS0, 0, 3)
	p.Halt()
	p.Label("newword")
	p.Data64(isa.Instr{Op: isa.OpLI, Rd: 13, Imm: 42}.Encode())
	return p
}

// skipFirmware resumes after every non-halt trap by skipping the
// trapping instruction, recording the trap stream. With stop set it
// instead returns to the OS at the first, leaving PC on it.
type skipFirmware struct {
	causes []isa.Cause
	values []uint64
	stop   bool
}

func (f *skipFirmware) HandleTrap(c *Core, tr *isa.Trap) Disposition {
	f.causes = append(f.causes, tr.Cause)
	f.values = append(f.values, tr.Value)
	switch {
	case tr.Cause == isa.CauseHalt:
		return DispHalt
	case f.stop:
		return DispReturnToOS
	}
	c.CPU.PC += isa.InstrSize
	return DispResume
}

func TestFastSlowEquivalence(t *testing.T) {
	for _, kind := range []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone} {
		t.Run(kind.String(), func(t *testing.T) {
			run := func(reference bool) (*Machine, *Core, *skipFirmware, RunResult) {
				m, c := newEquivMachine(t, kind, reference, mixedWorkload())
				fw := &skipFirmware{}
				m.Firmware = fw
				res, err := m.Run(0, 100_000)
				if err != nil {
					t.Fatal(err)
				}
				return m, c, fw, res
			}
			fm, fc, ffw, fres := run(false)
			rm, rc, rfw, rres := run(true)

			if fres.Reason != StopHalt || rres.Reason != StopHalt {
				t.Fatalf("stop reasons: fast %v, reference %v", fres.Reason, rres.Reason)
			}
			if fres.Steps != rres.Steps {
				t.Errorf("steps: fast %d, reference %d", fres.Steps, rres.Steps)
			}
			if fc.CPU.Regs != rc.CPU.Regs {
				t.Errorf("register files differ:\nfast %v\nref  %v", fc.CPU.Regs, rc.CPU.Regs)
			}
			if fc.CPU.PC != rc.CPU.PC || fc.CPU.Cycles != rc.CPU.Cycles {
				t.Errorf("pc/cycles: fast %#x/%d, reference %#x/%d",
					fc.CPU.PC, fc.CPU.Cycles, rc.CPU.PC, rc.CPU.Cycles)
			}
			if fc.CPU.Regs[13] != 42 {
				t.Errorf("self-modified instruction executed stale decode: x13 = %d", fc.CPU.Regs[13])
			}
			if fc.TLB.Hits != rc.TLB.Hits || fc.TLB.Misses != rc.TLB.Misses ||
				fc.TLB.Flushes != rc.TLB.Flushes || fc.TLB.Shootdown != rc.TLB.Shootdown {
				t.Errorf("TLB stats: fast %d/%d/%d/%d, reference %d/%d/%d/%d",
					fc.TLB.Hits, fc.TLB.Misses, fc.TLB.Flushes, fc.TLB.Shootdown,
					rc.TLB.Hits, rc.TLB.Misses, rc.TLB.Flushes, rc.TLB.Shootdown)
			}
			if fc.L1.Hits != rc.L1.Hits || fc.L1.Misses != rc.L1.Misses || fc.L1.Evictions != rc.L1.Evictions {
				t.Errorf("L1 stats: fast %d/%d/%d, reference %d/%d/%d",
					fc.L1.Hits, fc.L1.Misses, fc.L1.Evictions, rc.L1.Hits, rc.L1.Misses, rc.L1.Evictions)
			}
			if fm.L2.Hits != rm.L2.Hits || fm.L2.Misses != rm.L2.Misses || fm.L2.Evictions != rm.L2.Evictions {
				t.Errorf("L2 stats: fast %d/%d/%d, reference %d/%d/%d",
					fm.L2.Hits, fm.L2.Misses, fm.L2.Evictions, rm.L2.Hits, rm.L2.Misses, rm.L2.Evictions)
			}
			// Every way's tag, residency and LRU stamp, not only the counts.
			if i := firstWayDiff(fc.L1.Snapshot(), rc.L1.Snapshot()); i >= 0 {
				t.Errorf("L1 way %d differs between the engines", i)
			}
			if i := firstWayDiff(fm.L2.Snapshot(), rm.L2.Snapshot()); i >= 0 {
				t.Errorf("L2 way %d differs between the engines", i)
			}
			if len(ffw.causes) != len(rfw.causes) {
				t.Fatalf("trap streams differ in length: %v vs %v", ffw.causes, rfw.causes)
			}
			for i := range ffw.causes {
				if ffw.causes[i] != rfw.causes[i] || ffw.values[i] != rfw.values[i] {
					t.Errorf("trap %d: fast %v/%#x, reference %v/%#x",
						i, ffw.causes[i], ffw.values[i], rfw.causes[i], rfw.values[i])
				}
			}
		})
	}
}

// TestSelfModifyingCodeInvalidatesDecodeCache executes an instruction,
// overwrites it from guest code, and executes it again: the second
// execution must see the new decode.
func TestSelfModifyingCodeInvalidatesDecodeCache(t *testing.T) {
	p := asm.New()
	p.La(1, "target")
	p.La(2, "newword")
	p.I(isa.OpLD, 3, 2, 0, 0)
	p.Li(5, 0)
	p.Label("target")
	p.Li(4, 1) // becomes LI x4, 42 on the second pass
	p.I(isa.OpADDI, 5, 5, 0, 1)
	p.Li(6, 2)
	p.Branch(isa.OpBEQ, 5, 6, "end")
	p.I(isa.OpSD, 0, 1, 3, 0) // patch "target"
	p.J("target")
	p.Label("end")
	p.Halt()
	p.Label("newword")
	p.Data64(isa.Instr{Op: isa.OpLI, Rd: 4, Imm: 42}.Encode())

	m, c := newEquivMachine(t, IsolationNone, false, p)
	m.Firmware = &skipFirmware{}
	res, err := m.Run(0, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopHalt {
		t.Fatalf("stop = %+v", res)
	}
	if c.CPU.Regs[4] != 42 {
		t.Fatalf("x4 = %d: decode cache served a stale instruction", c.CPU.Regs[4])
	}
}

// TestHostWriteInvalidatesDecodeCache overwrites cached code through
// the Go-level WriteBytes path (what the SM's loader and DMA use)
// between runs.
func TestHostWriteInvalidatesDecodeCache(t *testing.T) {
	p := asm.New()
	p.Li(4, 1)
	p.Halt()
	m, c := newEquivMachine(t, IsolationNone, false, p)
	m.Firmware = &skipFirmware{}
	if _, err := m.Run(0, 100); err != nil {
		t.Fatal(err)
	}
	if c.CPU.Regs[4] != 1 {
		t.Fatalf("x4 = %d before patch", c.CPU.Regs[4])
	}
	// Patch the first instruction in physical memory.
	var buf [8]byte
	w := isa.Instr{Op: isa.OpLI, Rd: 4, Imm: 99}.Encode()
	for i := range buf {
		buf[i] = byte(w >> (8 * uint(i)))
	}
	if err := m.Mem.WriteBytes(0x10000, buf[:]); err != nil {
		t.Fatal(err)
	}
	c.CPU.PC = 0x10000
	c.CPU.Halted = false
	if _, err := m.Run(0, 100); err != nil {
		t.Fatal(err)
	}
	if c.CPU.Regs[4] != 99 {
		t.Fatalf("x4 = %d: host write did not invalidate the decode cache", c.CPU.Regs[4])
	}
}

// TestShootdownDropsFastPathState remaps a virtual page to different
// physical code and performs the TLB shootdown a region re-grant
// implies: execution must follow the new mapping immediately.
func TestShootdownDropsFastPathState(t *testing.T) {
	m, err := New(smallConfig(IsolationNone))
	if err != nil {
		t.Fatal(err)
	}
	m.Firmware = &skipFirmware{}
	next := uint64(0x20000) >> mem.PageBits
	alloc := func() (uint64, error) { p := next; next++; return p, nil }
	b, err := pt.NewBuilder(m.Mem, alloc)
	if err != nil {
		t.Fatal(err)
	}
	const codeVA = uint64(0x10000)
	paA, paB := uint64(0x30000), uint64(0x31000)
	progA := asm.New().Li(3, 1).Halt()
	progB := asm.New().Li(3, 2).Halt()
	binA, _ := progA.Assemble(codeVA)
	binB, _ := progB.Assemble(codeVA)
	m.Mem.WriteBytes(paA, binA)
	m.Mem.WriteBytes(paB, binB)
	if err := b.Map(codeVA, paA, pt.R|pt.X); err != nil {
		t.Fatal(err)
	}
	c := m.Cores[0]
	c.Satp = b.Root
	c.CPU.Mode = isa.PrivS
	c.CPU.PC = codeVA
	if _, err := m.Run(0, 100); err != nil {
		t.Fatal(err)
	}
	if c.CPU.Regs[3] != 1 {
		t.Fatalf("x3 = %d under mapping A", c.CPU.Regs[3])
	}

	// Re-grant: the page moves to different backing memory; the SM
	// shoots down translations into the old frame.
	if err := b.Unmap(codeVA); err != nil {
		t.Fatal(err)
	}
	if err := b.Map(codeVA, paB, pt.R|pt.X); err != nil {
		t.Fatal(err)
	}
	oldPPN := paA >> mem.PageBits
	c.TLB.FlushFrames(oldPPN, 1)
	if c.TLB.Shootdown == 0 {
		t.Fatal("shootdown not recorded")
	}
	c.CPU.PC = codeVA
	c.CPU.Halted = false
	if _, err := m.Run(0, 100); err != nil {
		t.Fatal(err)
	}
	if c.CPU.Regs[3] != 2 {
		t.Fatalf("x3 = %d: stale fast-path state survived the shootdown", c.CPU.Regs[3])
	}
}

// TestTranslateWidthBoundary pins the width-threading bugfix: the
// isolation check must cover exactly the accessed bytes, so a narrow
// access at the end of a permitted range passes while a wide one at
// the same boundary faults.
func TestTranslateWidthBoundary(t *testing.T) {
	t.Run("sanctum-region-boundary", func(t *testing.T) {
		m, _ := newTestMachine(t, IsolationSanctum)
		c := m.Cores[0]
		c.OSRegions = dram.Bitmap(0).Set(0) // region 0 only, bare translation
		regSize := m.DRAM.RegionSize()
		if _, err := c.LoadAs(isa.PrivS, regSize-1, 1); err != nil {
			t.Errorf("1-byte load at last owned byte faulted: %v", err)
		}
		if _, err := c.LoadAs(isa.PrivS, regSize-8, 8); err != nil {
			t.Errorf("8-byte load fully inside the region faulted: %v", err)
		}
		if _, err := c.LoadAs(isa.PrivS, regSize, 1); err == nil {
			t.Error("1-byte load in a foreign region passed")
		}
	})
	t.Run("end-of-memory", func(t *testing.T) {
		m, _ := newTestMachine(t, IsolationNone)
		c := m.Cores[0]
		top := m.Mem.Size()
		if _, err := c.LoadAs(isa.PrivS, top-1, 1); err != nil {
			t.Errorf("1-byte load at last physical byte faulted: %v", err)
		}
		if err := c.StoreAs(isa.PrivS, top-2, 2, 7); err != nil {
			t.Errorf("2-byte store at end of memory faulted: %v", err)
		}
		if _, err := c.LoadAs(isa.PrivS, top, 1); err == nil {
			t.Error("load beyond physical memory passed")
		}
	})
}

// --- fast-path micro-benchmarks ---

// BenchmarkDecodeCacheHit measures the full fetch fast path (decode
// cache, last-translation cache, L1 line ref all hitting).
func BenchmarkDecodeCacheHit(b *testing.B) {
	m, err := New(smallConfig(IsolationNone))
	if err != nil {
		b.Fatal(err)
	}
	next := uint64(0x20000) >> mem.PageBits
	alloc := func() (uint64, error) { p := next; next++; return p, nil }
	bt, _ := pt.NewBuilder(m.Mem, alloc)
	const codeVA = uint64(0x10000)
	bt.Map(codeVA, 0x30000, pt.R|pt.X)
	prog := asm.New().Nop()
	bin, _ := prog.Assemble(codeVA)
	m.Mem.WriteBytes(0x30000, bin)
	c := m.Cores[0]
	c.Satp = bt.Root
	c.CPU.Mode = isa.PrivS
	c.FetchDecoded(codeVA) // warm every layer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, fault := c.FetchDecoded(codeVA); fault != nil {
			b.Fatal(fault)
		}
	}
}

// BenchmarkDecodeCacheMiss measures the refill path: the decode cache
// entry is dead on every fetch (as after a code write), but the TLB
// and L1 still serve their hits.
func BenchmarkDecodeCacheMiss(b *testing.B) {
	m, err := New(smallConfig(IsolationNone))
	if err != nil {
		b.Fatal(err)
	}
	next := uint64(0x20000) >> mem.PageBits
	alloc := func() (uint64, error) { p := next; next++; return p, nil }
	bt, _ := pt.NewBuilder(m.Mem, alloc)
	const codeVA = uint64(0x10000)
	bt.Map(codeVA, 0x30000, pt.R|pt.X)
	prog := asm.New().Nop()
	bin, _ := prog.Assemble(codeVA)
	m.Mem.WriteBytes(0x30000, bin)
	c := m.Cores[0]
	c.Satp = bt.Root
	c.CPU.Mode = isa.PrivS
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.icGen.Add(1) // kill the entry, as a code write would
		if _, _, fault := c.FetchDecoded(codeVA); fault != nil {
			b.Fatal(fault)
		}
	}
}
