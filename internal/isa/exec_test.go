package isa

import (
	"encoding/binary"
	"testing"
)

// flatBus is a toy bus with no translation: a flat byte array, fixed
// 1-cycle memory, faulting outside its extent.
type flatBus struct {
	mem []byte
}

func newFlatBus(size int) *flatBus { return &flatBus{mem: make([]byte, size)} }

func (b *flatBus) FetchInstr(va uint64) (uint64, uint64, *MemFault) {
	if va+8 > uint64(len(b.mem)) {
		return 0, 1, &MemFault{Kind: FaultAccess, Addr: va}
	}
	return binary.LittleEndian.Uint64(b.mem[va:]), 1, nil
}

func (b *flatBus) Load(va uint64, width int) (uint64, uint64, *MemFault) {
	if va%uint64(width) != 0 {
		return 0, 1, &MemFault{Kind: FaultMisaligned, Addr: va}
	}
	if va+uint64(width) > uint64(len(b.mem)) {
		return 0, 1, &MemFault{Kind: FaultAccess, Addr: va}
	}
	var v uint64
	for i := width - 1; i >= 0; i-- {
		v = v<<8 | uint64(b.mem[va+uint64(i)])
	}
	return v, 1, nil
}

func (b *flatBus) Store(va uint64, width int, val uint64) (uint64, *MemFault) {
	if va%uint64(width) != 0 {
		return 1, &MemFault{Kind: FaultMisaligned, Addr: va}
	}
	if va+uint64(width) > uint64(len(b.mem)) {
		return 1, &MemFault{Kind: FaultAccess, Addr: va}
	}
	for i := 0; i < width; i++ {
		b.mem[va+uint64(i)] = byte(val >> (8 * uint(i)))
	}
	return 1, nil
}

func (b *flatBus) loadProgram(at uint64, prog []Instr) {
	for i, in := range prog {
		binary.LittleEndian.PutUint64(b.mem[at+uint64(i)*InstrSize:], in.Encode())
	}
}

// run executes until HALT or another trap, bounded by maxSteps.
func run(t *testing.T, cpu *CPU, bus Bus, maxSteps int) *Trap {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		if tr := cpu.Step(bus); tr != nil {
			return tr
		}
	}
	t.Fatal("program did not stop")
	return nil
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ins := []Instr{
		{Op: OpADD, Rd: 3, Rs1: 4, Rs2: 5, Imm: 0},
		{Op: OpLI, Rd: 31, Imm: -1},
		{Op: OpBEQ, Rs1: 1, Rs2: 2, Imm: -64},
		{Op: OpSD, Rs1: 2, Rs2: 9, Imm: 2147483647},
		{Op: OpJAL, Rd: 1, Imm: -2147483648},
	}
	for _, in := range ins {
		if got := Decode(in.Encode()); got != in {
			t.Errorf("round trip: %v -> %v", in, got)
		}
	}
}

func TestArithmetic(t *testing.T) {
	bus := newFlatBus(4096)
	bus.loadProgram(0, []Instr{
		{Op: OpLI, Rd: 1, Imm: 21},
		{Op: OpLI, Rd: 2, Imm: 2},
		{Op: OpMUL, Rd: 3, Rs1: 1, Rs2: 2},   // 42
		{Op: OpADDI, Rd: 4, Rs1: 3, Imm: -2}, // 40
		{Op: OpSUB, Rd: 5, Rs1: 3, Rs2: 4},   // 2
		{Op: OpDIVU, Rd: 6, Rs1: 3, Rs2: 5},  // 21
		{Op: OpREMU, Rd: 7, Rs1: 3, Rs2: 4},  // 2
		{Op: OpHALT},
	})
	cpu := &CPU{}
	run(t, cpu, bus, 100)
	want := map[uint8]uint64{3: 42, 4: 40, 5: 2, 6: 21, 7: 2}
	for r, v := range want {
		if cpu.Regs[r] != v {
			t.Errorf("x%d = %d, want %d", r, cpu.Regs[r], v)
		}
	}
}

func TestDivByZeroRISCVSemantics(t *testing.T) {
	bus := newFlatBus(4096)
	bus.loadProgram(0, []Instr{
		{Op: OpLI, Rd: 1, Imm: 7},
		{Op: OpDIVU, Rd: 2, Rs1: 1, Rs2: 0},
		{Op: OpREMU, Rd: 3, Rs1: 1, Rs2: 0},
		{Op: OpHALT},
	})
	cpu := &CPU{}
	run(t, cpu, bus, 10)
	if cpu.Regs[2] != ^uint64(0) {
		t.Errorf("divu/0 = %#x, want all-ones", cpu.Regs[2])
	}
	if cpu.Regs[3] != 7 {
		t.Errorf("remu/0 = %d, want dividend", cpu.Regs[3])
	}
}

// TestX0Hardwired: x0 reads as zero and its storage slot is never
// written, whether the field names it as 0 or by an alias (register
// fields are taken mod 32, so 32 is x0 too).
func TestX0Hardwired(t *testing.T) {
	for _, zero := range []uint8{0, 32} {
		bus := newFlatBus(4096)
		bus.loadProgram(0, []Instr{
			{Op: OpLI, Rd: zero, Imm: 99},
			{Op: OpADDI, Rd: 1, Rs1: zero, Imm: 5},
			{Op: OpHALT},
		})
		cpu := &CPU{}
		run(t, cpu, bus, 10)
		if cpu.Regs[0] != 0 {
			t.Errorf("x%d: Regs[0] = %d, want 0 (x0 was written)", zero, cpu.Regs[0])
		}
		if cpu.Regs[1] != 5 {
			t.Errorf("x%d: x1 = %d, want 5 (x0 must read as zero)", zero, cpu.Regs[1])
		}
	}
}

func TestShiftsAndComparisons(t *testing.T) {
	bus := newFlatBus(4096)
	bus.loadProgram(0, []Instr{
		{Op: OpLI, Rd: 1, Imm: -8},
		{Op: OpSRAI, Rd: 2, Rs1: 1, Imm: 1},  // -4
		{Op: OpSRLI, Rd: 3, Rs1: 1, Imm: 60}, // 15
		{Op: OpSLTI, Rd: 4, Rs1: 1, Imm: 0},  // 1 (signed)
		{Op: OpSLTIU, Rd: 5, Rs1: 1, Imm: 0}, // 0 (unsigned: huge)
		{Op: OpLI, Rd: 6, Imm: 1},
		{Op: OpSLL, Rd: 7, Rs1: 6, Rs2: 3}, // 1<<15
		{Op: OpHALT},
	})
	cpu := &CPU{}
	run(t, cpu, bus, 20)
	if int64(cpu.Regs[2]) != -4 {
		t.Errorf("srai = %d", int64(cpu.Regs[2]))
	}
	if cpu.Regs[3] != 15 {
		t.Errorf("srli = %d", cpu.Regs[3])
	}
	if cpu.Regs[4] != 1 || cpu.Regs[5] != 0 {
		t.Errorf("slti=%d sltiu=%d", cpu.Regs[4], cpu.Regs[5])
	}
	if cpu.Regs[7] != 1<<15 {
		t.Errorf("sll = %#x", cpu.Regs[7])
	}
}

func TestLoadsStoresAllWidths(t *testing.T) {
	bus := newFlatBus(4096)
	bus.loadProgram(0, []Instr{
		{Op: OpLI, Rd: 1, Imm: 0x800}, // buffer base
		{Op: OpLI, Rd: 2, Imm: -2},    // 0xFF..FE
		{Op: OpSD, Rs1: 1, Rs2: 2, Imm: 0},
		{Op: OpLB, Rd: 3, Rs1: 1, Imm: 0},  // sign-extended 0xFE -> -2
		{Op: OpLBU, Rd: 4, Rs1: 1, Imm: 0}, // 0xFE
		{Op: OpLH, Rd: 5, Rs1: 1, Imm: 0},
		{Op: OpLHU, Rd: 6, Rs1: 1, Imm: 0},
		{Op: OpLW, Rd: 7, Rs1: 1, Imm: 0},
		{Op: OpLWU, Rd: 8, Rs1: 1, Imm: 0},
		{Op: OpLD, Rd: 9, Rs1: 1, Imm: 0},
		{Op: OpSB, Rs1: 1, Rs2: 0, Imm: 0}, // clear low byte
		{Op: OpLD, Rd: 10, Rs1: 1, Imm: 0},
		{Op: OpHALT},
	})
	cpu := &CPU{}
	run(t, cpu, bus, 30)
	if int64(cpu.Regs[3]) != -2 || cpu.Regs[4] != 0xFE {
		t.Errorf("lb=%d lbu=%#x", int64(cpu.Regs[3]), cpu.Regs[4])
	}
	if int64(cpu.Regs[5]) != -2 || cpu.Regs[6] != 0xFFFE {
		t.Errorf("lh=%d lhu=%#x", int64(cpu.Regs[5]), cpu.Regs[6])
	}
	if int64(cpu.Regs[7]) != -2 || cpu.Regs[8] != 0xFFFFFFFE {
		t.Errorf("lw=%d lwu=%#x", int64(cpu.Regs[7]), cpu.Regs[8])
	}
	if cpu.Regs[9] != ^uint64(1) {
		t.Errorf("ld=%#x", cpu.Regs[9])
	}
	if cpu.Regs[10] != ^uint64(0xFF) {
		t.Errorf("after sb: %#x", cpu.Regs[10])
	}
}

func TestBranchLoop(t *testing.T) {
	// Sum 1..10 with a BNE loop.
	bus := newFlatBus(4096)
	bus.loadProgram(0, []Instr{
		{Op: OpLI, Rd: 1, Imm: 0},  // sum
		{Op: OpLI, Rd: 2, Imm: 1},  // i
		{Op: OpLI, Rd: 3, Imm: 11}, // bound
		// loop:
		{Op: OpADD, Rd: 1, Rs1: 1, Rs2: 2},
		{Op: OpADDI, Rd: 2, Rs1: 2, Imm: 1},
		{Op: OpBNE, Rs1: 2, Rs2: 3, Imm: -16}, // back to loop
		{Op: OpHALT},
	})
	cpu := &CPU{}
	run(t, cpu, bus, 1000)
	if cpu.Regs[1] != 55 {
		t.Errorf("sum = %d, want 55", cpu.Regs[1])
	}
}

func TestJalJalrCallReturn(t *testing.T) {
	bus := newFlatBus(4096)
	bus.loadProgram(0, []Instr{
		{Op: OpJAL, Rd: RegRA, Imm: 24},       // call func at 24
		{Op: OpADDI, Rd: 2, Rs1: 3, Imm: 1},   // after return: x2 = x3+1
		{Op: OpHALT},                          //
		{Op: OpLI, Rd: 3, Imm: 41},            // func: x3 = 41
		{Op: OpJALR, Rd: RegZero, Rs1: RegRA}, // ret
	})
	cpu := &CPU{}
	run(t, cpu, bus, 20)
	if cpu.Regs[2] != 42 {
		t.Errorf("x2 = %d, want 42", cpu.Regs[2])
	}
}

func TestECallTrap(t *testing.T) {
	bus := newFlatBus(4096)
	bus.loadProgram(0, []Instr{
		{Op: OpLI, Rd: RegA7, Imm: 77},
		{Op: OpECALL},
	})
	cpu := &CPU{}
	tr := run(t, cpu, bus, 10)
	if tr.Cause != CauseECallU || tr.Value != 77 {
		t.Fatalf("trap = %v", tr)
	}
	if tr.PC != InstrSize {
		t.Fatalf("trap pc = %#x, want the ECALL instruction", tr.PC)
	}
	// S-mode ECALL reports a different cause.
	cpu2 := &CPU{Mode: PrivS}
	bus.loadProgram(0, []Instr{{Op: OpECALL}})
	cpu2.PC = 0
	tr2 := cpu2.Step(bus)
	if tr2 == nil || tr2.Cause != CauseECallS {
		t.Fatalf("S-mode ecall trap = %v", tr2)
	}
}

func TestIllegalInstruction(t *testing.T) {
	bus := newFlatBus(4096)
	binary.LittleEndian.PutUint64(bus.mem[0:], uint64(opCount)+7)
	cpu := &CPU{}
	tr := cpu.Step(bus)
	if tr == nil || tr.Cause != CauseIllegal {
		t.Fatalf("trap = %v", tr)
	}
}

func TestMemFaultsBecomeTraps(t *testing.T) {
	bus := newFlatBus(4096)
	bus.loadProgram(0, []Instr{
		{Op: OpLI, Rd: 1, Imm: 0x2000}, // beyond the 4K bus
		{Op: OpLD, Rd: 2, Rs1: 1},
	})
	cpu := &CPU{}
	tr := run(t, cpu, bus, 10)
	if tr.Cause != CauseLoadAccess || tr.Value != 0x2000 {
		t.Fatalf("trap = %v", tr)
	}
	bus.loadProgram(0, []Instr{
		{Op: OpLI, Rd: 1, Imm: 0x801},
		{Op: OpLD, Rd: 2, Rs1: 1}, // misaligned
	})
	cpu = &CPU{}
	tr = run(t, cpu, bus, 10)
	if tr.Cause != CauseMisalignedLoad {
		t.Fatalf("trap = %v", tr)
	}
	bus.loadProgram(0, []Instr{
		{Op: OpLI, Rd: 1, Imm: 0x802},
		{Op: OpSW, Rs1: 1, Rs2: 0}, // misaligned store
	})
	cpu = &CPU{}
	tr = run(t, cpu, bus, 10)
	if tr.Cause != CauseMisalignedStore {
		t.Fatalf("trap = %v", tr)
	}
}

func TestMisalignedPC(t *testing.T) {
	cpu := &CPU{PC: 4}
	tr := cpu.Step(newFlatBus(64))
	if tr == nil || tr.Cause != CauseMisalignedFetch {
		t.Fatalf("trap = %v", tr)
	}
}

func TestFetchBeyondMemory(t *testing.T) {
	cpu := &CPU{PC: 1 << 20}
	tr := cpu.Step(newFlatBus(64))
	if tr == nil || tr.Cause != CauseFetchAccess {
		t.Fatalf("trap = %v", tr)
	}
}

func TestHaltSticky(t *testing.T) {
	bus := newFlatBus(64)
	bus.loadProgram(0, []Instr{{Op: OpHALT}})
	cpu := &CPU{}
	tr := cpu.Step(bus)
	if tr == nil || tr.Cause != CauseHalt {
		t.Fatalf("trap = %v", tr)
	}
	if tr2 := cpu.Step(bus); tr2 == nil || tr2.Cause != CauseHalt {
		t.Fatal("halted CPU stepped again")
	}
}

func TestRdcycleMonotonic(t *testing.T) {
	bus := newFlatBus(4096)
	bus.loadProgram(0, []Instr{
		{Op: OpRDCYCLE, Rd: 1},
		{Op: OpNOP},
		{Op: OpNOP},
		{Op: OpRDCYCLE, Rd: 2},
		{Op: OpHALT},
	})
	cpu := &CPU{}
	run(t, cpu, bus, 10)
	if cpu.Regs[2] <= cpu.Regs[1] {
		t.Fatalf("cycles not monotonic: %d then %d", cpu.Regs[1], cpu.Regs[2])
	}
}

func TestTrapLeavesPCAtFault(t *testing.T) {
	bus := newFlatBus(4096)
	bus.loadProgram(0, []Instr{
		{Op: OpNOP},
		{Op: OpEBREAK},
	})
	cpu := &CPU{}
	tr := run(t, cpu, bus, 10)
	if tr.Cause != CauseBreakpoint || tr.PC != InstrSize || cpu.PC != InstrSize {
		t.Fatalf("trap=%v cpu.PC=%#x", tr, cpu.PC)
	}
}

func TestCauseClassifiers(t *testing.T) {
	if !CauseTimerInterrupt.IsInterrupt() || CauseECallU.IsInterrupt() || CauseHalt.IsInterrupt() {
		t.Error("IsInterrupt wrong")
	}
	if !CauseLoadPageFault.IsPageFault() || CauseLoadAccess.IsPageFault() {
		t.Error("IsPageFault wrong")
	}
}
