package machine

import (
	"bytes"
	"encoding/binary"
	"slices"
	"testing"

	"sanctorum/internal/hw/mem"
	"sanctorum/internal/isa"
)

// Directed tests for the block-compilation tier (block.go): discovery
// and promotion, loop chaining, guard bails under self-modifying code,
// revalidation across generation bumps, the disable knob, and every
// case of the uop switches. The
// broad equivalence net is TestFastSlowEquivalence plus the
// differential fuzzer in blockfuzz_test.go; these tests pin the
// engine's internal behaviour via BlockStats.

// bfLoopWords is the canonical hot loop: load, accumulate, store,
// increment, mix, jump back — the bench kernel's shape.
func bfLoopWords() []uint64 {
	prog := []isa.Instr{
		{Op: isa.OpLD, Rd: 6, Rs1: 8, Imm: 0},
		{Op: isa.OpADD, Rd: 7, Rs1: 7, Rs2: 6},
		{Op: isa.OpSD, Rs1: 8, Rs2: 7, Imm: 8},
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.OpXOR, Rd: 7, Rs1: 7, Rs2: 5},
		{Op: isa.OpJAL, Imm: -5 * 8},
	}
	words := make([]uint64, len(prog))
	for i, in := range prog {
		words[i] = in.Encode()
	}
	return words
}

// TestBlockHotLoop: a tight loop is promoted to one block, nearly all
// instructions retire inside it, consecutive iterations chain without
// leaving the engine, and the final state matches the reference
// interpreter exactly.
func TestBlockHotLoop(t *testing.T) {
	const steps = 8192
	m, c := bfMachine(t, IsolationNone, bfBlocks, 1, bfLoopWords())
	if _, err := m.Run(0, steps); err != nil {
		t.Fatal(err)
	}
	bs := c.BlockStats()
	if bs.Compiled != 1 {
		t.Errorf("compiled %d blocks, want 1", bs.Compiled)
	}
	if frac := float64(bs.Instrs) / steps; frac < 0.9 {
		t.Errorf("only %.1f%% of instructions retired in blocks", 100*frac)
	}
	if bs.Loops == 0 {
		t.Error("loop iterations never chained inside the engine")
	}
	if bs.GuardBails != 0 {
		t.Errorf("%d guard bails in a steady-state loop, want 0", bs.GuardBails)
	}

	rm, rc := bfMachine(t, IsolationNone, bfReference, 1, bfLoopWords())
	if _, err := rm.Run(0, steps); err != nil {
		t.Fatal(err)
	}
	if c.CPU.Regs != rc.CPU.Regs || c.CPU.PC != rc.CPU.PC || c.CPU.Cycles != rc.CPU.Cycles {
		t.Errorf("block engine diverged from reference: pc %#x/%d vs %#x/%d",
			c.CPU.PC, c.CPU.Cycles, rc.CPU.PC, rc.CPU.Cycles)
	}
}

// TestBlockSelfModifyBail: a store inside a block that overwrites a
// later instruction of the same block must bail at the store's
// boundary, and the re-fetched tail must execute the new code. The
// sequence loops so the site gets hot enough to compile (a block only
// seeds from a re-entered transfer target); the patch lands on the
// second, block-executed iteration.
func TestBlockSelfModifyBail(t *testing.T) {
	patched := isa.Instr{Op: isa.OpLI, Rd: 3, Imm: 42}.Encode()
	// The store's target is computed per iteration: a scratch data word
	// for the first two (so the site can get hot and compile with a
	// clean seed — a code write kills the compile seed by design), the
	// LI's own code word from iteration 2 on. The patch therefore lands
	// mid-block, between the store's segment and the LI's.
	prog := []isa.Instr{
		{Op: isa.OpLD, Rd: 4, Rs1: 9, Imm: 0x100}, // replacement word
		{Op: isa.OpSLTIU, Rd: 15, Rs1: 5, Imm: 2}, // 1 while iteration < 2
		{Op: isa.OpMUL, Rd: 16, Rs1: 15, Rs2: 13}, // x13 = code target - data scratch
		{Op: isa.OpSUB, Rd: 17, Rs1: 14, Rs2: 16}, // x14 = code target
		{Op: isa.OpSD, Rs1: 17, Rs2: 4, Imm: 0},   // patch the LI (iterations ≥ 2)
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.OpLI, Rd: 3, Imm: 1}, // becomes LI x3, 42
		{Op: isa.OpBLT, Rs1: 5, Rs2: 12, Imm: -7 * 8},
		{Op: isa.OpHALT},
	}
	words := make([]uint64, len(prog))
	for i, in := range prog {
		words[i] = in.Encode()
	}
	m, c := bfMachine(t, IsolationNone, bfBlocks, 1, words)
	if err := m.Mem.Store(bfCodePA+0x100, 8, patched); err != nil {
		t.Fatal(err)
	}
	codeTarget := bfCodeVA + 6*isa.InstrSize
	c.CPU.Regs[12] = 5 // iterations
	c.CPU.Regs[13] = codeTarget - bfDataVA
	c.CPU.Regs[14] = codeTarget
	m.Firmware = &skipFirmware{}
	res, err := m.Run(0, 200)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopHalt {
		t.Fatalf("stop = %+v", res)
	}
	if c.CPU.Regs[3] != 42 {
		t.Fatalf("x3 = %d: block executed a stale instruction past a code write", c.CPU.Regs[3])
	}
	bs := c.BlockStats()
	if bs.Compiled == 0 {
		t.Fatalf("loop never compiled: %+v", bs)
	}
	if bs.GuardBails == 0 {
		t.Errorf("self-modifying store did not bail the block: %+v", bs)
	}
}

// TestBlockFollowsPlainJumps: a top-tested copy loop of the bulk KV
// server's shape (body; j top; top: bltu i, n, body) copies 2 KiB from
// data page 0 to data page 1. The block at the body follows the plain
// jump back to the loop-top branch, so it ends in a branch to its own
// entry: one block, chained pass after pass, retiring nearly every
// instruction. The end state — registers, PC, cycles, TLB counters,
// every L1 and L2 way and the data pages — must match the
// per-instruction engine on every isolation kind.
func TestBlockFollowsPlainJumps(t *testing.T) {
	const size = 2048
	prog := []isa.Instr{
		{Op: isa.OpLI, Rd: 5, Imm: 0},                 // i
		{Op: isa.OpLI, Rd: 6, Imm: size},              // n
		{Op: isa.OpADDI, Rd: 12, Rs1: 8, Imm: 0x1000}, // destination: data page 1
		// top:
		{Op: isa.OpBLTU, Rs1: 5, Rs2: 6, Imm: 2 * 8}, // → body
		{Op: isa.OpJAL, Rd: isa.RegZero, Imm: 7 * 8}, // → done
		// body:
		{Op: isa.OpADD, Rd: 13, Rs1: 8, Rs2: 5},
		{Op: isa.OpLD, Rd: 13, Rs1: 13},
		{Op: isa.OpADD, Rd: 14, Rs1: 12, Rs2: 5},
		{Op: isa.OpSD, Rs1: 14, Rs2: 13},
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 8},
		{Op: isa.OpJAL, Rd: isa.RegZero, Imm: -7 * 8}, // → top
		// done:
		{Op: isa.OpHALT},
	}
	words := make([]uint64, len(prog))
	for i, in := range prog {
		words[i] = in.Encode()
	}
	src := make([]byte, size)
	for i := 0; i < size; i += 8 {
		binary.LittleEndian.PutUint64(src[i:], uint64(i)*0x9e3779b97f4a7c15)
	}
	for _, kind := range []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone} {
		t.Run(kind.String(), func(t *testing.T) {
			c := bfCompare(t, kind, words, src)
			dst := make([]byte, size)
			if err := c.machine.Mem.ReadBytes(bfDataPA+mem.PageSize, dst); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(dst, src) {
				t.Fatal("the loop did not copy data page 0 to data page 1")
			}
			bs := c.BlockStats()
			if bs.Compiled != 1 {
				t.Errorf("compiled %d blocks, want 1: %+v", bs.Compiled, bs)
			}
			if bs.Loops == 0 {
				t.Errorf("the copy loop never chained inside the engine: %+v", bs)
			}
			// 3 setup instructions, 7 per iteration, the exit branch and
			// jump, and the HALT.
			steps := 3 + 7*size/8 + 3
			if frac := float64(bs.Instrs) / float64(steps); frac < 0.9 {
				t.Errorf("only %.1f%% of instructions retired in blocks: %+v", 100*frac, bs)
			}
			if bs.GuardBails != 0 {
				t.Errorf("%d guard bails in a steady-state loop, want 0", bs.GuardBails)
			}
		})
	}
}

// TestBlockFollowedJumpBail: a store inside a block patches the
// instruction after it, in a segment the block reached through a
// followed jump. The guard must bail at that segment's first VA — not
// at entry + retired offset, which after the jump names the store's own
// predecessor — and the interpreter must execute the new word. The
// patch is aimed at a scratch data word for the first two iterations so
// the loop compiles with a clean seed (see TestBlockSelfModifyBail).
func TestBlockFollowedJumpBail(t *testing.T) {
	const target = 12 // index of the patched LI
	prog := []isa.Instr{
		{Op: isa.OpLI, Rd: 12, Imm: 5},                      // iterations
		{Op: isa.OpADDI, Rd: 14, Rs1: 9, Imm: target * 8},   // x14 = code target
		{Op: isa.OpSUB, Rd: 13, Rs1: 14, Rs2: 8},            // x13 = code target - data scratch
		{Op: isa.OpLD, Rd: 4, Rs1: 9, Imm: 0x100},           // loop: replacement word
		{Op: isa.OpSLTIU, Rd: 15, Rs1: 5, Imm: 2},           // 1 while iteration < 2
		{Op: isa.OpMUL, Rd: 16, Rs1: 15, Rs2: 13},           // x13 while iteration < 2, else 0
		{Op: isa.OpSUB, Rd: 17, Rs1: 14, Rs2: 16},           // store target: data scratch, then the LI
		{Op: isa.OpJAL, Rd: isa.RegZero, Imm: 3 * 8},        // followed: skips two words
		{Op: isa.OpADDI, Rd: 20, Rs1: 20, Imm: 1},           // skipped
		{Op: isa.OpADDI, Rd: 20, Rs1: 20, Imm: 1},           // skipped
		{Op: isa.OpADDI, Rd: 21, Rs1: 21, Imm: 1},           // counts passes
		{Op: isa.OpSD, Rs1: 17, Rs2: 4, Imm: 0},             // patch the LI (iterations ≥ 2)
		{Op: isa.OpLI, Rd: 3, Imm: 1},                       // becomes LI x3, 42
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},             // iteration++
		{Op: isa.OpBLT, Rs1: 5, Rs2: 12, Imm: (3 - 14) * 8}, // → loop
		{Op: isa.OpHALT},
	}
	words := make([]uint64, 0x100/8+1)
	for i, in := range prog {
		words[i] = in.Encode()
	}
	words[0x100/8] = isa.Instr{Op: isa.OpLI, Rd: 3, Imm: 42}.Encode()
	for _, kind := range []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone} {
		t.Run(kind.String(), func(t *testing.T) {
			c := bfCompare(t, kind, words, nil)
			if c.CPU.Regs[3] != 42 {
				t.Fatalf("x3 = %d: block executed a stale instruction past a code write", c.CPU.Regs[3])
			}
			if bs := c.BlockStats(); bs.GuardBails == 0 {
				t.Errorf("the patching store did not bail the block: %+v", bs)
			}
			entry := bfCodeVA + 3*isa.InstrSize
			b := c.blocks[(entry>>3)&(bcEntries-1)]
			if b == nil || b.entryVA != entry || !slices.Contains(b.vas, bfCodeVA+target*isa.InstrSize) {
				t.Fatal("the loop's block does not reach the patched word through the jump")
			}
		})
	}
}

// TestBlockChainedPassBail: a guard bail on a chained pass (not the
// first) must resume at entry + segment offset, not at entry + total
// retired — the two agree only on pass zero. The store walks down
// through the second (never-executed) code page for 15 iterations and
// only then crosses into the executing page, so the code-write bail
// fires with many completed passes already chained. Everything
// architecturally visible must match the reference interpreter.
func TestBlockChainedPassBail(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.OpADDI, Rd: 7, Rs1: 9, Imm: 0x1ff8}, // store cursor: last word of code page 2
		{Op: isa.OpLI, Rd: 5, Imm: 0x100},            // cursor step
		{Op: isa.OpLI, Rd: 6, Imm: 24},               // iterations
		// loop:
		{Op: isa.OpSD, Rs1: 7, Rs2: 2, Imm: 0},  // [cursor] = 0
		{Op: isa.OpSUB, Rd: 7, Rs1: 7, Rs2: 5},  // cursor -= 0x100
		{Op: isa.OpADDI, Rd: 4, Rs1: 4, Imm: 1}, // iteration++
		{Op: isa.OpBNE, Rs1: 4, Rs2: 6, Imm: -3 * 8},
		{Op: isa.OpHALT},
	}
	words := make([]uint64, len(prog))
	for i, in := range prog {
		words[i] = in.Encode()
	}
	for _, kind := range []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone} {
		bfCompare(t, kind, words, nil)
	}
}

// TestBlockRevalidation: a TLB flush (domain switch, shootdown) makes
// the block's guard word stale; the next hot entry must revive the
// block by revalidation, not recompilation.
func TestBlockRevalidation(t *testing.T) {
	m, c := bfMachine(t, IsolationNone, bfBlocks, 1, bfLoopWords())
	if _, err := m.Run(0, 4096); err != nil {
		t.Fatal(err)
	}
	if bs := c.BlockStats(); bs.Compiled != 1 {
		t.Fatalf("setup: compiled %d blocks, want 1", bs.Compiled)
	}
	c.TLB.Flush()
	if _, err := m.Run(0, 4096); err != nil {
		t.Fatal(err)
	}
	bs := c.BlockStats()
	if bs.Revalidations == 0 {
		t.Errorf("stale block was not revalidated: %+v", bs)
	}
	if bs.Compiled != 1 {
		t.Errorf("stale block was recompiled (%d compiles), want revalidation only", bs.Compiled)
	}
}

// TestBlockThreshold: a site below the heat threshold stays on the
// per-instruction path; crossing it compiles.
func TestBlockThreshold(t *testing.T) {
	m, c := bfMachine(t, IsolationNone, bfBlocks, 50, bfLoopWords())
	if _, err := m.Run(0, 6*40); err != nil { // 40 entries < 50
		t.Fatal(err)
	}
	if bs := c.BlockStats(); bs.Compiled != 0 {
		t.Fatalf("compiled below threshold: %+v", bs)
	}
	if _, err := m.Run(0, 6*20); err != nil { // crosses 50
		t.Fatal(err)
	}
	if bs := c.BlockStats(); bs.Compiled != 1 {
		t.Errorf("site over threshold not compiled: %+v", bs)
	}
}

// TestBlockEngineDisabled: the knob really disables the tier.
func TestBlockEngineDisabled(t *testing.T) {
	m, c := bfMachine(t, IsolationNone, bfNoBlocks, 1, bfLoopWords())
	if _, err := m.Run(0, 4096); err != nil {
		t.Fatal(err)
	}
	if bs := c.BlockStats(); bs != (BlockStats{}) {
		t.Errorf("disabled engine recorded activity: %+v", bs)
	}
}

// TestBlockEveryUop covers every case of segEnv.run's two switches
// inside blocks. A hot loop runs three blocks: the first fuses every
// ALU op with x0 and its alias 32 as operands, loads into x0 and x32,
// and ends in a linking JAL; the second gives every ALU op an x0 or x32
// destination (compiled to nothing) and ends in a JALR with rd == rs1;
// the third ends in the loop's branch against x0. The JAL and the JALR
// each skip a word that would set x5, so a link written before the
// target is read shows. The end state must match the reference
// interpreter on every backend, and every pass after the first two
// (which seed the decode cache the compiler reads) must retire inside
// blocks.
func TestBlockEveryUop(t *testing.T) {
	const iters = 24
	const x0a = isa.NumRegs // x0's alias
	setup := []isa.Instr{
		{Op: isa.OpLI, Rd: 6, Imm: iters},
		{Op: isa.OpLI, Rd: 7, Imm: 3},
		{Op: isa.OpLI, Rd: 12, Imm: -5},
	}
	ops := []isa.Instr{ // every ALU op but NOP, reading x0 or x32 in most
		{Op: isa.OpADD, Rd: 13, Rs1: 6, Rs2: 0},
		{Op: isa.OpSUB, Rd: 14, Rs1: x0a, Rs2: 6},
		{Op: isa.OpAND, Rd: 15, Rs1: 12, Rs2: 6},
		{Op: isa.OpOR, Rd: 16, Rs1: 0, Rs2: 12},
		{Op: isa.OpXOR, Rd: 17, Rs1: 13, Rs2: x0a},
		{Op: isa.OpSLL, Rd: 18, Rs1: 6, Rs2: 7},
		{Op: isa.OpSRL, Rd: 19, Rs1: 12, Rs2: x0a},
		{Op: isa.OpSRA, Rd: 20, Rs1: 12, Rs2: 6},
		{Op: isa.OpSLT, Rd: 21, Rs1: 12, Rs2: 0},
		{Op: isa.OpSLTU, Rd: 22, Rs1: x0a, Rs2: 12},
		{Op: isa.OpMUL, Rd: 23, Rs1: 6, Rs2: 12},
		{Op: isa.OpDIVU, Rd: 24, Rs1: 12, Rs2: 0},
		{Op: isa.OpREMU, Rd: 25, Rs1: 12, Rs2: x0a},
		{Op: isa.OpADDI, Rd: 26, Rs1: x0a, Imm: 77},
		{Op: isa.OpANDI, Rd: 27, Rs1: 12, Imm: 0xff},
		{Op: isa.OpORI, Rd: 28, Rs1: 0, Imm: 5},
		{Op: isa.OpXORI, Rd: 29, Rs1: 6, Imm: -1},
		{Op: isa.OpSLLI, Rd: 30, Rs1: 6, Imm: 60},
		{Op: isa.OpSRLI, Rd: 31, Rs1: 12, Imm: 4},
		{Op: isa.OpSRAI, Rd: 4, Rs1: 12, Imm: 1},
		{Op: isa.OpSLTI, Rd: 3, Rs1: x0a, Imm: 1},
		{Op: isa.OpSLTIU, Rd: 2, Rs1: 0, Imm: 1},
		{Op: isa.OpLI, Rd: 11, Imm: 1234},
	}
	var prog []isa.Instr
	prog = append(prog, setup...)
	loop := len(prog)
	prog = append(prog, ops...)
	prog = append(prog,
		isa.Instr{Op: isa.OpLD, Rd: 0, Rs1: 8},
		isa.Instr{Op: isa.OpLW, Rd: x0a, Rs1: 8, Imm: 4},
		isa.Instr{Op: isa.OpJAL, Rd: 1, Imm: 2 * 8},
		isa.Instr{Op: isa.OpLI, Rd: 5, Imm: 666}, // skipped by the JAL
	)
	for i, in := range ops { // the same ops, their results discarded
		in.Rd = []uint8{0, x0a}[i%2]
		prog = append(prog, in)
	}
	jalr := len(prog) + 2
	prog = append(prog,
		isa.Instr{Op: isa.OpNOP},
		isa.Instr{Op: isa.OpLI, Rd: 9, Imm: int32(bfCodeVA) + int32(jalr+2)*8},
		isa.Instr{Op: isa.OpJALR, Rd: 9, Rs1: 9},
		isa.Instr{Op: isa.OpLI, Rd: 5, Imm: 667}, // skipped by the JALR
		isa.Instr{Op: isa.OpADDI, Rd: 6, Rs1: 6, Imm: -1},
		isa.Instr{Op: isa.OpBNE, Rs1: 6, Rs2: 0, Imm: int32(loop-(jalr+3)) * 8},
		isa.Instr{Op: isa.OpHALT},
	)
	words := make([]uint64, len(prog))
	for i, in := range prog {
		words[i] = in.Encode()
	}
	data := bytes.Repeat([]byte{0xa5}, 16) // what the x0 loads must not keep
	body := len(prog) - len(setup) - 3     // per pass: less the skipped words and the HALT
	for _, kind := range []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone} {
		t.Run(kind.String(), func(t *testing.T) {
			c := bfCompare(t, kind, words, data)
			if c.CPU.Regs[5] != 0 {
				t.Errorf("x5 = %d: a word after the JAL or JALR ran", c.CPU.Regs[5])
			}
			bs := c.BlockStats()
			if bs.Compiled != 3 {
				t.Errorf("compiled %d blocks, want 3: %+v", bs.Compiled, bs)
			}
			if want := uint64((iters - 2) * body); bs.Instrs < want {
				t.Errorf("%d instructions retired in blocks, want at least %d: %+v", bs.Instrs, want, bs)
			}
		})
	}
}
