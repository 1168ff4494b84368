package machine

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"sanctorum/internal/hw/cache"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pmp"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
)

// Differential fuzzing of the block-compilation tier: the same random
// instruction stream is executed on a machine with the block engine
// forced hot (threshold 1) and on one with it disabled, and every
// architecturally visible observable — registers, PC, modeled cycles,
// TLB and cache statistics, every L1 and L2 way (tag, residency and LRU
// stamp), the full trap stream, and the final contents of the code and
// data pages — must be identical. The
// generator is biased toward the cases with their own bail-out
// machinery: self-modifying stores over the code pages, accesses that
// straddle the last mapped page into unmapped space, mid-block faults,
// and system ops that must terminate block formation.

const (
	bfCodeVA   = uint64(0x10000)
	bfCodePA   = uint64(0x10000)
	bfDataVA   = uint64(0x40000)
	bfDataPA   = uint64(0x50000)
	bfUnmapped = uint64(0x700000)
	bfCodeLen  = 2 * mem.PageSize // two writable+executable pages
	bfDataLen  = 3 * mem.PageSize
)

// bfMachine builds a paged S-mode machine with the fuzz address space
// and the program words loaded. blockEngine selects the engine under
// test versus the per-instruction control; threshold sets the heat
// count at which a transfer target is promoted (1 = on first sight,
// for maximal block coverage).
func bfMachine(t *testing.T, kind IsolationKind, blockEngine bool, threshold int, words []uint64) (*Machine, *Core) {
	t.Helper()
	cfg := smallConfig(kind)
	cfg.DisableBlockEngine = !blockEngine
	cfg.BlockThreshold = threshold
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
	for p := uint64(0); p < bfCodeLen/mem.PageSize; p++ {
		if err := b.Map(bfCodeVA+p*mem.PageSize, bfCodePA+p*mem.PageSize, pt.R|pt.W|pt.X); err != nil {
			t.Fatal(err)
		}
	}
	for p := uint64(0); p < bfDataLen/mem.PageSize; p++ {
		if err := b.Map(bfDataVA+p*mem.PageSize, bfDataPA+p*mem.PageSize, pt.R|pt.W); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range words {
		if err := m.Mem.Store(bfCodePA+uint64(i)*isa.InstrSize, 8, w); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Cores[0]
	c.Satp = b.Root
	c.CPU.Mode = isa.PrivS
	c.CPU.PC = bfCodeVA
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
	// Base registers the generator builds addresses from: data base,
	// code base (self-modifying stores), the last mapped data word
	// (offsets from here straddle into unmapped space), and a wholly
	// unmapped base (mid-block faults).
	c.CPU.Regs[8] = bfDataVA
	c.CPU.Regs[9] = bfCodeVA
	c.CPU.Regs[10] = bfDataVA + bfDataLen - 8
	c.CPU.Regs[11] = bfUnmapped
	return m, c
}

var bfALUOps = []isa.Op{
	isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR,
	isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpSLT, isa.OpSLTU,
	isa.OpMUL, isa.OpDIVU, isa.OpREMU,
	isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI,
	isa.OpSLLI, isa.OpSRLI, isa.OpSRAI, isa.OpSLTI, isa.OpSLTIU,
	isa.OpLI, isa.OpNOP,
}

var bfMemOps = []isa.Op{
	isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLD, isa.OpLBU, isa.OpLHU, isa.OpLWU,
	isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD,
}

var bfBranchOps = []isa.Op{isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU}

// bfGenerate maps fuzz bytes to an instruction stream. Four bytes per
// instruction: a class selector and three operand bytes. The stream is
// capped at the code region less one word for the trailing HALT.
func bfGenerate(data []byte) []uint64 {
	max := int(bfCodeLen/isa.InstrSize) - 1
	var words []uint64
	for i := 0; i+4 <= len(data) && len(words) < max; i += 4 {
		sel, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
		var in isa.Instr
		switch {
		case sel < 140: // ALU: the bulk of block bodies
			in = isa.Instr{
				Op: bfALUOps[int(b1)%len(bfALUOps)],
				Rd: b2 % isa.NumRegs, Rs1: b3 % isa.NumRegs, Rs2: (b2 >> 3) % isa.NumRegs,
				Imm: int32(int8(b3)) * int32(b1),
			}
		case sel < 190: // memory: base register picks the fault class
			base := uint8(8 + b2%4)
			imm := int32(b3) * 8
			if b2&0x10 != 0 {
				imm = int32(int8(b3)) // small, possibly misaligned offset
			}
			in = isa.Instr{
				Op: bfMemOps[int(b1)%len(bfMemOps)],
				Rd: b2 % isa.NumRegs, Rs1: base, Rs2: b3 % isa.NumRegs, Imm: imm,
			}
		case sel < 215: // control flow: short aligned hops inside the region
			off := (int32(int8(b2)) % 24) * isa.InstrSize
			if off == 0 {
				off = isa.InstrSize
			}
			switch {
			case sel < 205:
				in = isa.Instr{
					Op:  bfBranchOps[int(b1)%len(bfBranchOps)],
					Rs1: b2 % isa.NumRegs, Rs2: b3 % isa.NumRegs, Imm: off,
				}
			case b3&1 == 0:
				// A plain jump, forward or backward: the kind of jump a
				// block follows rather than ending at.
				in = isa.Instr{Op: isa.OpJAL, Rd: isa.RegZero, Imm: off}
			default:
				in = isa.Instr{Op: isa.OpJAL, Rd: b2 % isa.NumRegs, Imm: off}
			}
		case sel < 225: // system ops: block formation must stop before them
			in = isa.Instr{Op: isa.OpRDCYCLE, Rd: b2 % isa.NumRegs}
		case sel < 230:
			in = isa.Instr{Op: isa.OpECALL}
		default: // raw word: undecodable garbage must trap identically
			words = append(words, binary.LittleEndian.Uint64([]byte{sel, b1, b2, b3, b1, b2, b3, sel}))
			continue
		}
		words = append(words, in.Encode())
	}
	words = append(words, isa.Instr{Op: isa.OpHALT}.Encode())
	return words
}

// bfState snapshots everything the two engines must agree on.
type bfState struct {
	res    RunResult
	regs   [isa.NumRegs]uint64
	pc     uint64
	cycles uint64
	tlb    [4]uint64
	l1     [3]uint64
	l2     [3]uint64
	l1Ways []cache.LineState
	l2Ways []cache.LineState
	causes []isa.Cause
	values []uint64
	code   []byte
	data   []byte
}

// bfRun runs words on a fresh machine, with data (if non-nil) loaded at
// the start of the data pages, and returns the end state and the core.
func bfRun(t *testing.T, kind IsolationKind, blockEngine bool, words []uint64, data []byte) (bfState, *Core) {
	t.Helper()
	m, c := bfMachine(t, kind, blockEngine, 1, words)
	if err := m.Mem.WriteBytes(bfDataPA, data); err != nil {
		t.Fatal(err)
	}
	fw := &skipFirmware{}
	m.Firmware = fw
	res, err := m.Run(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	s := bfState{
		res: res, regs: c.CPU.Regs, pc: c.CPU.PC, cycles: c.CPU.Cycles,
		tlb:    [4]uint64{c.TLB.Hits, c.TLB.Misses, c.TLB.Flushes, c.TLB.Shootdown},
		l1:     [3]uint64{c.L1.Hits, c.L1.Misses, c.L1.Evictions},
		l2:     [3]uint64{m.L2.Hits, m.L2.Misses, m.L2.Evictions},
		l1Ways: c.L1.Snapshot(), l2Ways: m.L2.Snapshot(),
		causes: fw.causes, values: fw.values,
		code: make([]byte, bfCodeLen), data: make([]byte, bfDataLen),
	}
	if err := m.Mem.ReadBytes(bfCodePA, s.code); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.ReadBytes(bfDataPA, s.data); err != nil {
		t.Fatal(err)
	}
	return s, c
}

// bfCompare runs words on both engines, with data (if non-nil) loaded at
// the start of the data pages, and requires identical end states. It
// returns the block engine's core, for checks of the engine's own
// counters and blocks.
func bfCompare(t *testing.T, kind IsolationKind, words []uint64, data []byte) *Core {
	t.Helper()
	blk, c := bfRun(t, kind, true, words, data)
	ref, _ := bfRun(t, kind, false, words, data)
	if blk.res.Reason != ref.res.Reason || blk.res.Steps != ref.res.Steps {
		t.Errorf("%v: stop block %v/%d, reference %v/%d",
			kind, blk.res.Reason, blk.res.Steps, ref.res.Reason, ref.res.Steps)
	}
	if blk.regs != ref.regs {
		t.Errorf("%v: register files differ:\nblock %v\nref   %v", kind, blk.regs, ref.regs)
	}
	if blk.pc != ref.pc || blk.cycles != ref.cycles {
		t.Errorf("%v: pc/cycles block %#x/%d, reference %#x/%d",
			kind, blk.pc, blk.cycles, ref.pc, ref.cycles)
	}
	if blk.tlb != ref.tlb {
		t.Errorf("%v: TLB stats block %v, reference %v", kind, blk.tlb, ref.tlb)
	}
	if blk.l1 != ref.l1 {
		t.Errorf("%v: L1 stats block %v, reference %v", kind, blk.l1, ref.l1)
	}
	if blk.l2 != ref.l2 {
		t.Errorf("%v: L2 stats block %v, reference %v", kind, blk.l2, ref.l2)
	}
	if i := firstWayDiff(blk.l1Ways, ref.l1Ways); i >= 0 {
		t.Errorf("%v: L1 way %d block %+v, reference %+v", kind, i, blk.l1Ways[i], ref.l1Ways[i])
	}
	if i := firstWayDiff(blk.l2Ways, ref.l2Ways); i >= 0 {
		t.Errorf("%v: L2 way %d block %+v, reference %+v", kind, i, blk.l2Ways[i], ref.l2Ways[i])
	}
	if len(blk.causes) != len(ref.causes) {
		t.Fatalf("%v: trap streams differ in length: %v vs %v", kind, blk.causes, ref.causes)
	}
	for i := range blk.causes {
		if blk.causes[i] != ref.causes[i] || blk.values[i] != ref.values[i] {
			t.Errorf("%v: trap %d: block %v/%#x, reference %v/%#x",
				kind, i, blk.causes[i], blk.values[i], ref.causes[i], ref.values[i])
		}
	}
	for i := range blk.code {
		if blk.code[i] != ref.code[i] {
			t.Fatalf("%v: code byte %#x differs: block %#x, reference %#x",
				kind, i, blk.code[i], ref.code[i])
		}
	}
	for i := range blk.data {
		if blk.data[i] != ref.data[i] {
			t.Fatalf("%v: data byte %#x differs: block %#x, reference %#x",
				kind, i, blk.data[i], ref.data[i])
		}
	}
	return c
}

// firstWayDiff returns the index of the first way two cache snapshots
// disagree on, or -1 if they are equal.
func firstWayDiff(a, b []cache.LineState) int {
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}

// FuzzBlockDifferential is the open-ended harness; the nightly deep-CI
// job runs it with -fuzz for an extended period. Each input drives all
// three isolation backends.
func FuzzBlockDifferential(f *testing.F) {
	// Seeds aimed at the interesting regimes: a tight ALU loop, a
	// store-over-code sequence, page-straddling and unmapped accesses,
	// and raw garbage.
	f.Add([]byte{0, 0, 7, 7, 0, 13, 7, 1, 200, 0, 7, 240})
	f.Add([]byte{150, 10, 1, 8, 150, 7, 0x11, 3, 150, 3, 2, 200})
	f.Add([]byte{0, 22, 5, 2, 160, 1, 9, 0, 0, 0, 6, 6, 210, 0, 5, 0})
	f.Add([]byte{255, 1, 2, 3, 230, 9, 9, 9, 220, 0, 3, 0})
	rng := rand.New(rand.NewSource(7))
	long := make([]byte, 256)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) {
		words := bfGenerate(data)
		for _, kind := range []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone} {
			bfCompare(t, kind, words, nil)
		}
	})
}

// TestBlockDifferentialRandom is the always-on slice of the fuzzer: a
// fixed-seed batch of generated programs through the same comparator,
// so tier-1 CI exercises the differential property without -fuzz.
func TestBlockDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	kinds := []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone}
	for i := 0; i < 150; i++ {
		data := make([]byte, 64+rng.Intn(192))
		rng.Read(data)
		bfCompare(t, kinds[i%len(kinds)], bfGenerate(data), nil)
	}
}
