package machine

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"

	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
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
			bs := c.BlockStats()
			if bs.GuardBails == 0 {
				t.Errorf("the patching store did not bail the block: %+v", bs)
			}
			if bs.Invalidations == 0 {
				t.Errorf("the block survived the patch of its own word: %+v", bs)
			}
			// The patch kills the block, so its shape is checked on a
			// run that stops before the patch: the setup and two passes
			// of ten instructions, the second inside the block.
			m, c := bfMachine(t, kind, bfBlocks, 1, words)
			m.Firmware = &skipFirmware{}
			if _, err := m.Run(0, 3+2*10); err != nil {
				t.Fatal(err)
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

// TestBlockRemapRecompiles: a block whose page is remapped to another
// frame holding different code is dead for good. Its slot must be
// freed, so the site heats up again and compiles the code the page
// holds now, instead of failing revalidation on every arrival and
// running interpreted forever. The page's rejected sites are freed the
// same way: on the new frame one of them heads a block, and the other
// (reached when the new loop's block exits) holds the HALT. The remap
// writes no marked code page, so only the frame check can see it.
func TestBlockRemapRecompiles(t *testing.T) {
	const iters = 2000
	encode := func(prog []isa.Instr) []uint64 {
		words := make([]uint64, len(prog))
		for i, in := range prog {
			words[i] = in.Encode()
		}
		return words
	}
	oldCode := encode([]isa.Instr{
		{Op: isa.OpLI, Rd: 6, Imm: iters},
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},      // loop: a block of two
		{Op: isa.OpJAL, Rd: 1, Imm: 3 * 8},           // → the JALR
		{Op: isa.OpBLT, Rs1: 5, Rs2: 6, Imm: -2 * 8}, // a one-instruction site: rejected
		{Op: isa.OpHALT},
		{Op: isa.OpJALR, Rd: isa.RegZero, Rs1: 1},
	})
	newCode := encode([]isa.Instr{
		{Op: isa.OpLI, Rd: 6, Imm: iters},
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},      // loop
		{Op: isa.OpJAL, Rd: 1, Imm: 4 * 8},           // → the JALR
		{Op: isa.OpADDI, Rd: 7, Rs1: 7, Imm: 1},      // the same site, now a block of two
		{Op: isa.OpBLT, Rs1: 5, Rs2: 6, Imm: -3 * 8}, // → loop
		{Op: isa.OpHALT},
		{Op: isa.OpJALR, Rd: isa.RegZero, Rs1: 1},
	})
	m, c := bfMachine(t, IsolationNone, bfBlocks, 1, oldCode)
	m.Firmware = &skipFirmware{}
	if _, err := m.Run(0, 1_000_000); err != nil {
		t.Fatal(err)
	}
	before := c.BlockStats()
	if c.CPU.Regs[5] != iters || before.Compiled != 1 || before.Rejected != 2 {
		t.Fatalf("setup: x5 = %d, %+v", c.CPU.Regs[5], before)
	}
	// Put the new code in the page's other frame, move the page there
	// and shoot down the old frame, as a region re-grant does.
	for i, w := range newCode {
		if err := m.Mem.Store(bfAltPA+uint64(i)*isa.InstrSize, 8, w); err != nil {
			t.Fatal(err)
		}
	}
	bfApply(t, m, c, bfEvent{kind: bfRemap}, nil)
	c.CPU.PC, c.CPU.Halted = bfCodeVA, false
	c.CPU.Regs[5] = 0
	res, err := m.Run(0, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if c.CPU.Regs[7] != iters {
		t.Fatalf("x7 = %d after the remap, want %d from the new code", c.CPU.Regs[7], iters)
	}
	bs := c.BlockStats()
	if n := bs.Invalidations - before.Invalidations; n != 3 {
		t.Errorf("%d entries dropped, want the loop's block and both rejected sites: %+v", n, bs)
	}
	if n := bs.Compiled - before.Compiled; n != 2 {
		t.Errorf("%d blocks compiled after the remap, want the new code's two: %+v", n, bs)
	}
	// Per iteration the JALR (rejected again) is the only instruction
	// left to the interpreter: four of five retire in blocks.
	if n := bs.Instrs - before.Instrs; float64(n) < 0.75*float64(res.Steps) {
		t.Errorf("only %d of %d instructions retired in blocks after the remap: %+v", n, res.Steps, bs)
	}
}

// TestCleanKeepsDecodes: core cleaning drops translations, not decodes.
// After a warm run, ClearMicroarch and a rerun of the same code must
// decode nothing and compile nothing — not the loop's block, which is
// revalidated against the refilled TLB, nor its two rejected sites,
// whose negative entries stand — while every modeled observable still
// matches the reference interpreter doing the same.
func TestCleanKeepsDecodes(t *testing.T) {
	prog := []isa.Instr{
		{Op: isa.OpLI, Rd: 5, Imm: 0},
		{Op: isa.OpLI, Rd: 6, Imm: 500},
		{Op: isa.OpADDI, Rd: 7, Rs1: 7, Imm: 1}, // loop: a block of three
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},
		{Op: isa.OpJAL, Rd: 1, Imm: 3 * 8},           // → the JALR; links back
		{Op: isa.OpBLT, Rs1: 5, Rs2: 6, Imm: -3 * 8}, // a one-instruction site: rejected
		{Op: isa.OpHALT},
		{Op: isa.OpJALR, Rd: isa.RegZero, Rs1: 1}, // a one-instruction site: rejected
	}
	words := make([]uint64, len(prog))
	for i, in := range prog {
		words[i] = in.Encode()
	}
	run := func(engine bfEngine) (*Core, BlockStats) {
		m, c := bfMachine(t, IsolationSanctum, engine, 1, words)
		m.Firmware = &skipFirmware{}
		if _, err := m.Run(0, 1_000_000); err != nil {
			t.Fatal(err)
		}
		warm := c.BlockStats()
		c.ClearMicroarch()
		c.CPU.PC, c.CPU.Halted = bfCodeVA, false
		if _, err := m.Run(0, 1_000_000); err != nil {
			t.Fatal(err)
		}
		return c, warm
	}
	c, warm := run(bfBlocks)
	rc, _ := run(bfReference)
	if c.CPU.Regs != rc.CPU.Regs || c.CPU.Cycles != rc.CPU.Cycles ||
		c.TLB.Hits != rc.TLB.Hits || c.TLB.Misses != rc.TLB.Misses || c.TLB.Flushes != rc.TLB.Flushes {
		t.Fatalf("diverged from the reference: cycles %d vs %d, TLB %d/%d vs %d/%d",
			c.CPU.Cycles, rc.CPU.Cycles, c.TLB.Hits, c.TLB.Misses, rc.TLB.Hits, rc.TLB.Misses)
	}
	if warm.Compiled != 1 || warm.Rejected != 2 || warm.Decodes != uint64(len(words)) {
		t.Fatalf("warm run: %+v, want 1 block, 2 rejected sites and %d decodes", warm, len(words))
	}
	bs := c.BlockStats()
	if bs.Decodes != warm.Decodes || bs.Compiled != warm.Compiled || bs.Rejected != warm.Rejected {
		t.Errorf("the rerun after cleaning decoded %d words, compiled %d blocks and rejected %d sites, want none",
			bs.Decodes-warm.Decodes, bs.Compiled-warm.Compiled, bs.Rejected-warm.Rejected)
	}
	if bs.Revalidations == warm.Revalidations || bs.Invalidations != 0 {
		t.Errorf("the block was not revalidated (or was dropped) after cleaning: %+v", bs)
	}
	if bs.Instrs-warm.Instrs < 3*400 {
		t.Errorf("the rerun retired only %d instructions in blocks: %+v", bs.Instrs-warm.Instrs, bs)
	}
}

// TestBlockDomainSwitchDifferential drives hot loops through dense
// random schedules of domain-switch events on every backend, against
// the reference interpreter. The fuzzer's programs reach the events
// only now and then; these loops have blocks for each event to hit.
// Every other round shrinks the TLB to two or three entries, so fills
// evict live translations between and inside blocks.
func TestBlockDomainSwitchDifferential(t *testing.T) {
	copyLoop := []isa.Instr{
		{Op: isa.OpLI, Rd: 5, Imm: 0},
		{Op: isa.OpLI, Rd: 6, Imm: 4096},
		{Op: isa.OpADDI, Rd: 12, Rs1: 8, Imm: 0x1000},
		{Op: isa.OpBLTU, Rs1: 5, Rs2: 6, Imm: 2 * 8}, // top: → body
		{Op: isa.OpJAL, Rd: isa.RegZero, Imm: 7 * 8},
		{Op: isa.OpADD, Rd: 13, Rs1: 8, Rs2: 5}, // body
		{Op: isa.OpLD, Rd: 13, Rs1: 13},
		{Op: isa.OpADD, Rd: 14, Rs1: 12, Rs2: 5},
		{Op: isa.OpSD, Rs1: 14, Rs2: 13},
		{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 8},
		{Op: isa.OpJAL, Rd: isa.RegZero, Imm: -7 * 8}, // → top
		{Op: isa.OpHALT},
	}
	programs := [][]uint64{bfLoopWords(), make([]uint64, len(copyLoop))}
	for i, in := range copyLoop {
		programs[1][i] = in.Encode()
	}
	rng := rand.New(rand.NewSource(20261018))
	var total BlockStats
	for round := 0; round < 8; round++ {
		for _, kind := range []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone} {
			events := make([]bfEvent, 16)
			for i := range events {
				events[i] = bfEvent{
					after: 1 + rng.Intn(200),
					kind:  bfEventKind(rng.Intn(int(bfEventKinds))),
					arg:   uint8(rng.Intn(256)),
				}
			}
			words := programs[round%len(programs)]
			tlbEntries := []int{0, 2, 0, 3}[round%4]
			bs := bfCompareShape(t, kind, bfShape{tlbEntries: tlbEntries}, words, nil, events).BlockStats()
			total.Revalidations += bs.Revalidations
			total.Invalidations += bs.Invalidations
			total.Instrs += bs.Instrs
		}
	}
	if total.Revalidations == 0 || total.Invalidations == 0 || total.Instrs == 0 {
		t.Fatalf("the events never revived, dropped or ran a block: %+v", total)
	}
}

// TestBlockSteadyPasses drives copy loops of the bulk KV server's shape
// through the cases a steady pass must hand over or stop on, each
// against the reference interpreter on every observable, on every
// backend: load and store streams crossing L1 lines at different phases
// and widths, a stream crossing a page mid-loop, overlapping streams, a
// direct-mapped L1 where the data fills evict the loop's own code lines,
// a descending store stream that reaches the loop's own code page at
// pass 9, and a destination page frozen copy-on-write that traps from
// mid-loop on. Each point where a steady pass settles what it owes has
// a row of its own: a stride of 12 over 8-byte accesses, whose second
// pass of each execution runs steady and stops at a misaligned load,
// or, with 4-byte loads, at a misaligned store; on a direct-mapped L1, a
// crossing fill that evicts the other stream's line (both streams in
// one set, the code in others), and one that evicts a code line the
// rest of the pass fetches again. Every loop runs once whole and once in
// run slices ended mid-loop by domain-switch events. The loops whose
// passes fill no line in steady stretches must run steady passes, and
// the plain copy loop, whose crossing fills spare every ref, must run
// every chained pass steady.
//
// Each row also says whether its loop batches (batch in block.go). The
// rows for the batch's own stops: a descending store stream; narrow
// loads and stores; a block of 16 instructions, whose poll boundaries
// (every 2 passes) fall inside a line; a step budget that ends batches
// mid-line (the run is cut into 45-step slices); a copy-on-write page
// and the loop's own code page, each reached by the store stream while
// the load stream is mid-line; and a loop-carried accumulator, which is
// not strided and must not batch.
func TestBlockSteadyPasses(t *testing.T) {
	const page = mem.PageSize
	rows := []struct {
		name    string
		loop    bfLoop
		shape   bfShape
		steady  bool // the loop must run steady passes
		batched bool // the loop must run batched passes, else none
		slice   int  // nonzero: the first run is cut into slices of this many steps
	}{
		{"phases", bfLoop{width: 8, stride: 8, trip: 400, src: 0, dst: page + 24}, bfShape{}, true, true, 0},
		{"phases-narrow", bfLoop{width: 4, stride: 4, trip: 500, src: 44, dst: page + 8}, bfShape{}, true, true, 0},
		{"bytes", bfLoop{width: 1, stride: 1, trip: 600, src: 3, dst: page + 61}, bfShape{}, true, true, 0},
		{"stride-16", bfLoop{width: 8, stride: 16, trip: 250, src: 16, dst: page + 40}, bfShape{}, true, true, 0},
		{"stride-24", bfLoop{width: 8, stride: 24, trip: 150, src: 16, dst: page + 40}, bfShape{}, false, true, 0},
		{"page-cross", bfLoop{width: 8, stride: 8, trip: 128, src: page - 0x200, dst: 2*page - 0x1c8}, bfShape{}, true, true, 0},
		{"overlap-ahead", bfLoop{width: 8, stride: 8, trip: 300, src: 0x100, dst: 0x108}, bfShape{}, true, true, 0},
		{"overlap-behind", bfLoop{width: 8, stride: 8, trip: 300, src: 0x108, dst: 0x100}, bfShape{}, true, true, 0},
		{"evicts-code", bfLoop{width: 8, stride: 8, trip: 700, src: 0, dst: page + 24}, bfShape{l1Ways: 1}, false, true, 0},
		{"code-store", bfLoop{width: 8, stride: 8, trip: 32, src: 0x200, dstReg: 9, dst: page + 0x40, down: true}, bfShape{}, true, true, 0},
		{"cow", bfLoop{width: 8, stride: 8, trip: 64, src: 0, dst: 2*page - 0x100}, bfShape{cow: []uint64{bfDataPA + 2*page}}, true, true, 0},
		{"misaligned-load", bfLoop{width: 8, stride: 12, trip: 40, src: 0x200, dst: page + 0x300}, bfShape{}, false, false, 0},
		{"misaligned-store", bfLoop{width: 4, stWidth: 8, stride: 12, trip: 40, src: 0x200, dst: page + 0x300}, bfShape{}, false, false, 0},
		{"evicts-other", bfLoop{width: 8, stride: 8, trip: 200, src: 0x200, dst: page + 0x200}, bfShape{l1Ways: 1}, false, false, 0},
		{"evicts-code-mid-pass", bfLoop{width: 8, stride: 8, trip: 40, src: page + 0x20, dst: 2*page + 0x500}, bfShape{l1Ways: 1}, true, true, 0},
		{"down", bfLoop{width: 8, stride: 8, trip: 300, src: 0x40, dst: 2*page + 0x7f8, down: true}, bfShape{}, true, true, 0},
		{"width-4", bfLoop{width: 4, stride: 8, trip: 300, src: 4, dst: page + 12, down: true}, bfShape{}, true, true, 0},
		{"width-1", bfLoop{width: 1, stride: 2, trip: 600, src: 1, dst: page + 7}, bfShape{}, true, true, 0},
		{"poll-in-line", bfLoop{width: 8, stride: 8, trip: 300, src: 0x10, dst: page + 0x28, pad: 9}, bfShape{}, true, true, 0},
		{"budget-mid-batch", bfLoop{width: 8, stride: 8, trip: 500, src: 0, dst: page + 0x18}, bfShape{}, true, true, 45},
		{"cow-mid-batch", bfLoop{width: 8, stride: 8, trip: 64, src: 0x18, dst: 2*page - 0x100}, bfShape{cow: []uint64{bfDataPA + 2*page}}, true, true, 0},
		{"code-store-mid-batch", bfLoop{width: 8, stride: 8, trip: 32, src: 0x228, dstReg: 9, dst: page + 0x40, down: true}, bfShape{}, true, true, 0},
		{"accumulator", bfLoop{width: 8, stride: 8, trip: 300, src: 0, dst: page + 24, acc: true}, bfShape{}, true, false, 0},
	}
	data := make([]byte, bfDataLen)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	rng := rand.New(rand.NewSource(20261019))
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			loop := r.loop
			loop.srcReg = 8
			if loop.dstReg == 0 {
				loop.dstReg = 8
			}
			prog := append(loop.instrs(), isa.Instr{Op: isa.OpHALT})
			words := make([]uint64, len(prog))
			for i, in := range prog {
				words[i] = in.Encode()
			}
			// A slice ends at a no-op event: the core is in S mode already.
			var cuts []bfEvent
			for n := r.slice; n > 0 && n*len(cuts) < bfSteps; {
				cuts = append(cuts, bfEvent{after: n, kind: bfMode})
			}
			for _, kind := range []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone} {
				bs := bfCompareShape(t, kind, r.shape, words, data, cuts).BlockStats()
				if bs.Loops == 0 {
					t.Fatalf("%v: the loop never chained: %+v", kind, bs)
				}
				if r.steady && bs.Steady == 0 {
					t.Errorf("%v: no chained pass ran steady: %+v", kind, bs)
				}
				if r.name == "phases" && bs.Steady != bs.Loops {
					t.Errorf("%v: %d of %d chained passes ran steady, want all", kind, bs.Steady, bs.Loops)
				}
				if (bs.Batched > 0) != r.batched {
					t.Errorf("%v: %d chained passes ran batched, want batched %v: %+v", kind, bs.Batched, r.batched, bs)
				}
				events := make([]bfEvent, 12)
				for i := range events {
					events[i] = bfEvent{
						after: 1 + rng.Intn(300),
						kind:  bfEventKind(rng.Intn(int(bfEventKinds))),
						arg:   uint8(rng.Intn(256)),
					}
				}
				bfCompareShape(t, kind, r.shape, words, data, events)
			}
		})
	}
}

// TestBlockSteadyProofs covers the two ways a steady pass's proof can
// lapse without its own data test failing, against the reference
// interpreter on every observable.
//
// A code line evicted after its last fetch of the pass: a bottom-tested
// copy loop whose first two instructions end one L1 line, so that line
// is fetched only by the first segment, runs on a direct-mapped L1 with
// both streams stepping a line a pass; whenever the streams reach that
// line's set, a data fill evicts it after its fetch, and the next pass
// must not charge it through its dead ref.
//
// Bare data accesses: on a Sanctum core in enclave mode whose evrange
// covers only the code, with a bare OS root, the copy loop's data
// accesses translate bare. They fill no last-translation cache and
// count no TLB hit, so a steady pass must never take them as repeats.
//
// An evrange that splits a line: the enclave range is bare and the OS
// range paged, and the range's mask has a bit below the line size, so
// half of each 64-byte line of the loop's source translates through the
// OS table and half is bare. A line names no single walk root, so the
// core must never run steady.
func TestBlockSteadyProofs(t *testing.T) {
	const trip, stride = 120, 64
	late := []isa.Instr{
		{Op: isa.OpLI, Rd: 20, Imm: 0},
		{Op: isa.OpLI, Rd: 21, Imm: trip * stride},
		{Op: isa.OpADDI, Rd: 23, Rs1: 8, Imm: mem.PageSize},
		{Op: isa.OpNOP}, {Op: isa.OpNOP}, {Op: isa.OpNOP},
		{Op: isa.OpADD, Rd: 24, Rs1: 8, Rs2: 20}, // body, at the end of the first line
		{Op: isa.OpLD, Rd: 24, Rs1: 24},
		{Op: isa.OpADD, Rd: 25, Rs1: 23, Rs2: 20}, // the next line
		{Op: isa.OpSD, Rs1: 25, Rs2: 24},
		{Op: isa.OpADDI, Rd: 20, Rs1: 20, Imm: stride},
		{Op: isa.OpBLTU, Rs1: 20, Rs2: 21, Imm: -5 * 8}, // → body
		{Op: isa.OpHALT},
	}
	bare := append(bfLoop{width: 8, stride: 8, trip: 300, srcReg: 8, dstReg: 8, dst: mem.PageSize + 24}.instrs(),
		isa.Instr{Op: isa.OpHALT})
	enclaveCode := func(c *Core) {
		c.EnclaveMode = true
		c.ESatp, c.Satp = c.Satp, 0
		c.EvBase, c.EvMask = bfCodeVA, ^uint64(bfCodeLen-1)
		c.EncRegions = c.OSRegions
		c.CPU.Regs[8] = bfDataPA // bare: VA is PA
	}
	data := make([]byte, bfDataLen)
	for i := range data {
		data[i] = byte(i*5 + i>>9)
	}
	encode := func(prog []isa.Instr) []uint64 {
		words := make([]uint64, len(prog))
		for i, in := range prog {
			words[i] = in.Encode()
		}
		return words
	}
	for _, kind := range []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone} {
		if bs := bfCompareShape(t, kind, bfShape{l1Ways: 1}, encode(late), data, nil).BlockStats(); bs.Loops == 0 {
			t.Fatalf("%v: the late-eviction loop never chained: %+v", kind, bs)
		}
	}
	if bs := bfCompareShape(t, IsolationSanctum, bfShape{core: enclaveCode}, encode(bare), data, nil).BlockStats(); bs.Loops == 0 {
		t.Fatalf("the bare-data loop never chained: %+v", bs)
	}
	const splitVA = 1 << 20
	splitEvrange := func(c *Core) {
		next := uint64(0x38000) >> mem.PageBits
		b := &pt.Builder{Mem: c.machine.Mem, Root: c.Satp, Alloc: func() (uint64, error) { next++; return next - 1, nil }}
		if err := b.Map(splitVA, bfDataPA, pt.R|pt.W); err != nil {
			t.Fatal(err)
		}
		c.EnclaveMode = true
		c.ESatp, c.EncRegions = 0, c.OSRegions
		c.EvBase, c.EvMask = splitVA|1<<5, splitVA|1<<5
		c.CPU.Regs[12] = splitVA
	}
	split := append(bfLoop{width: 8, stride: 8, trip: 256, srcReg: 12, dstReg: 8, dst: mem.PageSize}.instrs(),
		isa.Instr{Op: isa.OpHALT})
	bs := bfCompareShape(t, IsolationSanctum, bfShape{core: splitEvrange}, encode(split), data, nil).BlockStats()
	if bs.Loops == 0 || bs.Steady != 0 {
		t.Fatalf("the split-evrange loop chained %d passes, %d steady; want some, none steady", bs.Loops, bs.Steady)
	}
}

// TestBlockSteadyCrossHart covers the stops a chain of steady passes
// meets only through another hart. Core 1 runs a copy loop, over and
// over, whose chained passes run steady and batch, while another
// goroutine does one of three things at random points: it freezes the
// destination page copy-on-write, so the next store traps; it marks the
// destination page as code, so the next store flags a code write and
// the block bails after it; or it rewrites a word of the loop's code
// page with the value it holds, which moves the code-write generation,
// so the guard fails at the next poll boundary. The streams cross lines
// at passes 3 and 5 of every 8, so half of the poll boundaries (every 4
// passes) end a pass the op loop ran and half end a batched one. The
// goroutine starts once the first slice of the core's run has published
// its cycles, and the core runs slices until the goroutine is done and
// one slice more, or until a trap. Every fast run is replayed on the
// reference interpreter, for as many steps, and compared on every
// observable: the replay applies a freeze just before the store that
// trapped, and leaves out the code marks and rewrites, which change no
// architectural state and are made eight times a run. Each action must
// land inside the loop's block at least once: a trap, or a guard bail.
func TestBlockSteadyCrossHart(t *testing.T) {
	const page = mem.PageSize
	loop := bfLoop{width: 8, stride: 8, trip: 496, srcReg: 8, dstReg: 8, src: 0x28, dst: page + 0x18}.instrs()
	prog := append(loop, isa.Instr{Op: isa.OpJAL, Rd: isa.RegZero, Imm: -int32(len(loop)) * 8}) // again
	words := make([]uint64, len(prog))
	for i, in := range prog {
		words[i] = in.Encode()
	}
	data := make([]byte, bfDataLen)
	for i := range data {
		data[i] = byte(i*3 + i>>7)
	}
	const dst = bfDataPA + page    // the destination page
	const spare = bfCodePA + 0x800 // a word of the code page no instruction reaches
	actions := []struct {
		name  string
		act   func(m *Machine)
		times int
	}{
		{"freeze", func(m *Machine) { m.Mem.MarkCOW(dst) }, 1},
		{"mark-code", func(m *Machine) { m.Mem.MarkCodePage(dst) }, 8},
		{"rewrite-code", func(m *Machine) {
			if err := m.Mem.Store(spare, 8, 0); err != nil {
				t.Error(err)
			}
		}, 8},
	}
	// start builds core 1's machine with the program and data loaded.
	start := func(kind IsolationKind, engine bfEngine) (*Machine, *Core, *skipFirmware) {
		m, c := bfMachineOn(t, kind, engine, 1, words, 1)
		if err := m.Mem.WriteBytes(bfDataPA, data); err != nil {
			t.Fatal(err)
		}
		fw := &skipFirmware{stop: true}
		m.Firmware = fw
		return m, c, fw
	}
	run := func(m *Machine, steps int) RunResult {
		res, err := m.Run(1, steps)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	const slice = 20_000
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	kinds := []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone}
	for _, a := range actions {
		// Every backend once; then, if the action has not yet landed
		// inside the block, more runs until it does.
		hits := 0
		for i := 0; i < len(kinds) || hits == 0 && i < 4*len(kinds); i++ {
			kind := kinds[i%len(kinds)]
			m, c, fw := start(kind, bfBlocks)
			gaps := make([]time.Duration, a.times)
			for j := range gaps {
				gaps[j] = time.Duration(rng.Intn(100)) * time.Microsecond
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				for m.CycleNow() == 0 { // until the first slice has run
				}
				for _, d := range gaps {
					for t0 := time.Now(); time.Since(t0) < d; {
					}
					a.act(m)
				}
			}()
			res := run(m, slice)
			for last := false; res.Reason == StopMaxSteps && !last; {
				select {
				case <-done:
					last = true
				default:
				}
				r := run(m, slice)
				r.Steps += res.Steps
				res = r
			}
			<-done
			fast := bfSnapshot(t, m, c, res, fw)
			if res.Reason == StopReturnToOS || c.BlockStats().GuardBails > 0 {
				hits++
			}
			rm, rc, rfw := start(kind, bfReference)
			ref := run(rm, res.Steps-1)
			if res.Reason == StopReturnToOS {
				a.act(rm)
			}
			r := run(rm, 1)
			r.Steps += ref.Steps
			bfDiff(t, kind, fast, bfSnapshot(t, rm, rc, r, rfw))
		}
		if hits == 0 {
			t.Errorf("%s never landed inside the loop's block", a.name)
		}
	}
}

// TestBatchStopsBeforeRefusedStore: a batch makes no pass that stores
// to a page the window would refuse or flag, however warm its chain.
// The copy loop runs until its chain is steady and the core sits at the
// loop's entry with both streams mid-line; then the destination page is
// frozen copy-on-write, or marked as code, as another hart may do
// between two passes, and batch is called there, as execBlock calls it
// at a steady pass start. It must make no pass and leave the registers
// and the destination page as they were, so that the op loop runs the
// pass and its store traps or flags. Left writable, the same call must
// batch, so the stop is the page check's and not the chain's.
func TestBatchStopsBeforeRefusedStore(t *testing.T) {
	const page = mem.PageSize
	prog := append(bfLoop{width: 8, stride: 8, trip: 400, srcReg: 8, dstReg: 8, dst: page + 24}.instrs(),
		isa.Instr{Op: isa.OpHALT})
	words := make([]uint64, len(prog))
	for i, in := range prog {
		words[i] = in.Encode()
	}
	data := make([]byte, bfDataLen)
	for i := range data {
		data[i] = byte(i*7 + i>>8)
	}
	const entry = bfCodeVA + 6*isa.InstrSize // the loop body
	const dst = bfDataPA + page              // the destination page
	marks := []struct {
		name    string
		mark    func(*mem.Phys)
		batched bool
	}{
		{"writable", func(*mem.Phys) {}, true},
		{"freeze", func(m *mem.Phys) { m.MarkCOW(dst) }, false},
		{"mark-code", func(m *mem.Phys) { m.MarkCodePage(dst) }, false},
	}
	step := func(m *Machine, steps int) {
		if _, err := m.Run(0, steps); err != nil {
			t.Fatal(err)
		}
	}
	for _, kind := range []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone} {
		for _, mk := range marks {
			m, c := bfMachine(t, kind, bfBlocks, 1, words)
			if err := m.Mem.WriteBytes(bfDataPA, data); err != nil {
				t.Fatal(err)
			}
			m.Firmware = &skipFirmware{}
			r, lb := &c.CPU.Regs, c.l1LineBits
			ld := func() uint64 { return r[22] + r[20] }
			st := func() uint64 { return r[23] + r[20] }
			mid := func(va uint64) bool { return va&(1<<lb-1) != 0 }
			step(m, 1000)
			for c.CPU.PC != entry || !mid(ld()) || !mid(st()) {
				step(m, 1)
			}
			bs := c.BlockStats()
			b := c.blockFor(entry)
			if bs.Steady == 0 || b == nil || b.strided == nil {
				t.Fatalf("%v: the copy loop is not a steady strided chain: %+v", kind, bs)
			}
			run := blockRun{
				st: segSteady, proved: c.L1.Changes(), ldLine: ld() >> lb, stLine: st() >> lb,
				steadyOK: true, budget: 1000,
			}
			regs := c.CPU.Regs
			before, after := make([]byte, page), make([]byte, page)
			if err := m.Mem.ReadBytes(dst, before); err != nil {
				t.Fatal(err)
			}
			mk.mark(m.Mem)
			chain := c.batch(b, &run)
			if err := m.Mem.ReadBytes(dst, after); err != nil {
				t.Fatal(err)
			}
			if batched := run.passes > 0; batched != mk.batched || !chain {
				t.Errorf("%v %s: batch made %d passes and chain %v, want batched %v and chain",
					kind, mk.name, run.passes, chain, mk.batched)
			}
			if !mk.batched && (c.CPU.Regs != regs || !bytes.Equal(before, after) || c.BlockStats() != bs) {
				t.Errorf("%v %s: a refused batch moved the registers, the destination page or the block stats", kind, mk.name)
			}
		}
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

// TestBlockEngineDisabled: the knob really disables the tier. The
// decode cache belongs to the per-instruction fast path, which stays
// on, so Decodes is the one counter that must move.
func TestBlockEngineDisabled(t *testing.T) {
	m, c := bfMachine(t, IsolationNone, bfNoBlocks, 1, bfLoopWords())
	if _, err := m.Run(0, 4096); err != nil {
		t.Fatal(err)
	}
	bs := c.BlockStats()
	if bs.Decodes != uint64(len(bfLoopWords())) {
		t.Errorf("the fast path decoded %d words, want each of the loop's %d once", bs.Decodes, len(bfLoopWords()))
	}
	if bs.Decodes = 0; bs != (BlockStats{}) {
		t.Errorf("disabled engine recorded activity: %+v", bs)
	}
}

// TestBlockEveryUop covers every register-op and terminal case of
// execBlock's switch inside blocks. A hot loop runs three blocks: the first fuses every
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
