package machine

import (
	"cmp"
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"

	"sanctorum/internal/hw/cache"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pmp"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/hw/tlb"
	"sanctorum/internal/isa"
)

// Differential fuzzing of the block-compilation tier: the same random
// instruction stream is executed on the production engine (the fast
// path with the block engine forced hot, threshold 1) and on the
// reference interpreter (DisableFastPath), and every architecturally
// visible observable — registers, PC, modeled cycles, TLB and cache
// statistics, every L1 and L2 way (tag, residency and LRU stamp), the
// full trap stream, and the final contents of the code and data pages —
// must be identical. The generator is biased toward the cases with their
// own bail-out machinery: self-modifying stores over the code pages,
// accesses that straddle the last mapped page into unmapped space,
// mid-block faults, and system ops that must terminate block formation;
// it also emits JALR (half with rd == rs1), names x0 by its alias 32,
// and emits whole top-tested stride loops whose chained passes run
// steady, and batch where the strides are whole access widths, some of
// them with strides that misalign every other pass or only their
// stores. The fuzzer also picks the L1's associativity: on
// a direct-mapped or 2-way L1 a line crossing's fill often evicts a
// code line or the other stream's line, so the pass must hand over.
//
// It also emits domain-switch events, which the harness applies to both
// engines alike between run slices: core cleaning (ClearMicroarch), a
// FlushFrames shootdown of one frame, a FlushPage, a code page remapped to
// its other frame plus the shootdown of the old one, a host write of an
// instruction word into a code frame, and a privilege-mode change.
// Decodes and blocks outlive every one of them, and must be revived
// against the TLB only where a reference fetch would hit it.

const (
	bfCodeVA   = uint64(0x10000)
	bfCodePA   = uint64(0x10000)
	bfDataVA   = uint64(0x40000)
	bfDataPA   = uint64(0x50000)
	bfAltPA    = uint64(0x60000) // each code page's other frame (remap events)
	bfUnmapped = uint64(0x700000)
	bfCodeLen  = 2 * mem.PageSize // two writable+executable pages
	bfDataLen  = 3 * mem.PageSize
)

// bfEngine selects the execution engine a fuzz machine runs.
type bfEngine int

const (
	bfBlocks    bfEngine = iota // production: the fast path plus the block tier
	bfNoBlocks                  // the fast path with the block tier disabled
	bfReference                 // the reference interpreter (DisableFastPath)
)

// bfMachine builds a paged S-mode machine with the fuzz address space
// and the program words loaded, running engine; threshold sets the heat
// count at which a transfer target is promoted (1 = on first sight, for
// maximal block coverage).
func bfMachine(t *testing.T, kind IsolationKind, engine bfEngine, threshold int, words []uint64) (*Machine, *Core) {
	t.Helper()
	return bfMachineOn(t, kind, engine, threshold, words, 0)
}

// bfMachineOn is bfMachine with the program on core id.
func bfMachineOn(t *testing.T, kind IsolationKind, engine bfEngine, threshold int, words []uint64, id int) (*Machine, *Core) {
	t.Helper()
	cfg := smallConfig(kind)
	cfg.DisableFastPath = engine == bfReference
	cfg.DisableBlockEngine = engine == bfNoBlocks
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
		if err := m.Mem.Store(bfAltPA+uint64(i)*isa.InstrSize, 8, bfVariant(w)); err != nil {
			t.Fatal(err)
		}
	}
	c := m.Cores[id]
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
	// code base (self-modifying stores and JALR targets), the last
	// mapped data word (offsets from here straddle into unmapped space),
	// and a wholly unmapped base (mid-block faults).
	c.CPU.Regs[8] = bfDataVA
	c.CPU.Regs[9] = bfCodeVA
	c.CPU.Regs[10] = bfDataVA + bfDataLen - 8
	c.CPU.Regs[11] = bfUnmapped
	return m, c
}

// bfVariant is w as the alternate code frames hold it: an ALU op's
// immediate is bumped, so a block that survived a remap onto the other
// frame would compute a visibly different result.
func bfVariant(w uint64) uint64 {
	in := isa.Decode(w)
	if !isa.IsALU(in.Op) {
		return w
	}
	in.Imm++
	return in.Encode()
}

// bfEventKind names a domain-switch event.
type bfEventKind uint8

const (
	bfClean     bfEventKind = iota // core cleaning: ClearMicroarch
	bfShootdown                    // FlushFrames of every translation into one frame
	bfFlushPage                    // FlushPage of one VPN
	bfRemap                        // a code page moves to its other frame, plus the old frame's shootdown
	bfHostWrite                    // a host write of a program word into a code frame
	bfMode                         // a privilege-mode change
	bfEventKinds
)

// bfEvent is applied to both engines after `after` more instructions
// retire; arg picks the frame, page, word or mode it acts on.
type bfEvent struct {
	after int
	kind  bfEventKind
	arg   uint8
}

// bfFrames are the frames a shootdown targets: both code pages, their
// alternates and the data pages.
var bfFrames = []uint64{
	bfCodePA, bfCodePA + mem.PageSize, bfAltPA, bfAltPA + mem.PageSize,
	bfDataPA, bfDataPA + mem.PageSize, bfDataPA + 2*mem.PageSize,
}

// bfApply applies ev to c. words is the program, the source of the
// words a host write stores.
func bfApply(t *testing.T, m *Machine, c *Core, ev bfEvent, words []uint64) {
	t.Helper()
	switch ev.kind {
	case bfClean:
		c.ClearMicroarch()
	case bfShootdown:
		ppn := bfFrames[int(ev.arg)%len(bfFrames)] >> mem.PageBits
		c.TLB.FlushFrames(ppn, 1)
	case bfFlushPage:
		vas := []uint64{bfCodeVA, bfCodeVA + mem.PageSize, bfDataVA, bfDataVA + mem.PageSize, bfUnmapped}
		c.TLB.FlushPage(vas[int(ev.arg)%len(vas)] >> mem.PageBits)
	case bfRemap:
		// Flip one code page between its frame and its alternate, as a
		// region re-grant would, then shoot down the old frame.
		off := uint64(ev.arg%2) * mem.PageSize
		b := &pt.Builder{Mem: m.Mem, Root: c.Satp}
		pte, err := b.Lookup(bfCodeVA + off)
		if err != nil {
			t.Fatal(err)
		}
		old, next := pt.PPNOf(pte)<<mem.PageBits, bfCodePA+off
		if old == next {
			next = bfAltPA + off
		}
		if err := b.Map(bfCodeVA+off, next, pt.R|pt.W|pt.X); err != nil {
			t.Fatal(err)
		}
		c.TLB.FlushFrames(old>>mem.PageBits, 1)
	case bfHostWrite:
		// One of the first 64 words of a code frame or its alternate,
		// where the generated programs live.
		pa := bfFrames[ev.arg%4] + uint64(ev.arg>>2)%64*isa.InstrSize
		if err := m.Mem.Store(pa, 8, words[int(ev.arg)%len(words)]); err != nil {
			t.Fatal(err)
		}
	case bfMode:
		// S, U (where the supervisor pages fault) or M: a mode the TLB
		// entries serve, one they do not, and a third the block guard
		// must tell apart from S.
		c.CPU.Mode = []isa.Priv{isa.PrivS, isa.PrivU, isa.PrivM}[ev.arg%3]
	}
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

// bfLoop is a top-tested stride loop of the bulk KV server's copy shape
// (body; j top; top: bltu i, n, body), which compiles to one block that
// chains: trip passes load width bytes from src+i and store stWidth
// bytes (width, if zero) of them to dst+i (dst-i when down), i stepping
// by stride. src and dst are offsets from the base registers srcReg and
// dstReg. pad NOPs after the store lengthen the block, and acc makes the
// stored value a running sum of the loaded ones, carried from pass to
// pass in x26. It uses x20–x26 only.
type bfLoop struct {
	width          int // 1, 2, 4 or 8
	stWidth        int // the store's width, if not width
	stride, trip   int32
	srcReg, dstReg uint8
	src, dst       int32
	down           bool
	pad            int
	acc            bool
}

// instrs is the loop, falling through past its end when done.
func (l bfLoop) instrs() []isa.Instr {
	load := map[int]isa.Op{1: isa.OpLBU, 2: isa.OpLH, 4: isa.OpLWU, 8: isa.OpLD}[l.width]
	store := map[int]isa.Op{1: isa.OpSB, 2: isa.OpSH, 4: isa.OpSW, 8: isa.OpSD}[cmp.Or(l.stWidth, l.width)]
	dstOp := isa.OpADD
	if l.down {
		dstOp = isa.OpSUB
	}
	body := []isa.Instr{
		{Op: isa.OpADD, Rd: 24, Rs1: 22, Rs2: 20},
		{Op: load, Rd: 24, Rs1: 24},
		{Op: dstOp, Rd: 25, Rs1: 23, Rs2: 20},
		{Op: store, Rs1: 25, Rs2: 24},
	}
	if l.acc {
		body = slices.Insert(body, 2, isa.Instr{Op: isa.OpADD, Rd: 26, Rs1: 26, Rs2: 24})
		body[4].Rs2 = 26
	}
	for range l.pad {
		body = append(body, isa.Instr{Op: isa.OpNOP})
	}
	body = append(body, isa.Instr{Op: isa.OpADDI, Rd: 20, Rs1: 20, Imm: l.stride})
	n := int32(len(body)) + 2 // each jump spans the body, the jump back and the top
	prog := []isa.Instr{
		{Op: isa.OpLI, Rd: 20, Imm: 0},
		{Op: isa.OpLI, Rd: 21, Imm: l.stride * l.trip},
		{Op: isa.OpADDI, Rd: 22, Rs1: l.srcReg, Imm: l.src},
		{Op: isa.OpADDI, Rd: 23, Rs1: l.dstReg, Imm: l.dst},
		{Op: isa.OpBLTU, Rs1: 20, Rs2: 21, Imm: 2 * 8}, // top: → body
		{Op: isa.OpJAL, Rd: isa.RegZero, Imm: n * 8},   // → past the loop
	}
	prog = append(prog, body...)
	return append(prog, isa.Instr{Op: isa.OpJAL, Rd: isa.RegZero, Imm: -n * 8}) // → top
}

// bfLoopFrom decodes a stride loop from three fuzz bytes: its width,
// stride (one to four widths, plus half a width when b1's bit 4 is set,
// so that every other pass misaligns), trip count (8 to 64), source
// offset in the data pages, store width (twice the load's, up to 8
// bytes, when b3's bit 7 is set, so that a stride of an odd number of
// load widths misaligns only the stores), and destination: overlapping
// the source eight bytes ahead or behind, on the next data page at
// another line phase, or descending from there. Both streams stay
// inside the data pages, and may cross a page.
func bfLoopFrom(b1, b2, b3 uint8) bfLoop {
	l := bfLoop{
		width:  1 << (b1 & 3),
		trip:   8 + int32(b1>>5)*8,
		srcReg: 8, dstReg: 8,
		src: int32(b2) * 8,
	}
	l.stride = int32(l.width)*(int32(b1>>2&3)+1) + int32(b1>>4&1)*int32(l.width/2)
	if b3&0x80 != 0 {
		l.stWidth = min(2*l.width, 8)
	}
	off := int32(b3>>2&0x1f) * 8
	switch b3 & 3 {
	case 0:
		l.dst = l.src + 8
	case 1:
		l.dst = max(l.src-8, 0)
	case 2:
		l.dst = l.src + mem.PageSize + off
	default:
		l.dst = l.src + 2*mem.PageSize + off
		l.down = true
	}
	return l
}

// bfGenerate maps fuzz bytes to an instruction stream and a schedule of
// domain-switch events. Four bytes per record: a class selector and
// three operand bytes. Register fields are drawn mod 32, and one
// instruction in eight then names x0 by its alias 32 in one field. A
// stride-loop record emits a whole bfLoop, so chained passes — and the
// steady ones among them — are common. The stream is capped at the code
// region less one word for the trailing HALT.
func bfGenerate(data []byte) ([]uint64, []bfEvent) {
	max := int(bfCodeLen/isa.InstrSize) - 1
	var words []uint64
	var events []bfEvent
	for i := 0; i+4 <= len(data) && len(words) < max; i += 4 {
		sel, b1, b2, b3 := data[i], data[i+1], data[i+2], data[i+3]
		var in isa.Instr
		switch {
		case sel >= 244: // a domain-switch event after up to 256 more steps
			events = append(events, bfEvent{
				after: 1 + int(b2), kind: bfEventKind(sel-244) % bfEventKinds, arg: b1 ^ b3,
			})
			continue
		case sel < 140: // ALU: the bulk of block bodies
			in = isa.Instr{
				Op: bfALUOps[int(b1)%len(bfALUOps)],
				Rd: b2 % isa.NumRegs, Rs1: b3 % isa.NumRegs, Rs2: (b2 >> 3) % isa.NumRegs,
				Imm: int32(int8(b3)) * int32(b1),
			}
		case sel >= 184 && sel < 190: // a stride loop, if it fits
			if loop := bfLoopFrom(b1, b2, b3).instrs(); len(words)+len(loop) <= max {
				for _, in := range loop {
					words = append(words, in.Encode())
				}
			}
			continue
		case sel < 190: // memory: base register picks the fault class
			// rd comes from b2's upper bits, so it does not fix the base:
			// a load into x0 runs through every fault class.
			base := uint8(8 + b2%4)
			imm := int32(b3) * 8
			if b2&0x10 != 0 {
				imm = int32(int8(b3)) // small, possibly misaligned offset
			}
			in = isa.Instr{
				Op: bfMemOps[int(b1)%len(bfMemOps)],
				Rd: (b2 >> 2) % isa.NumRegs, Rs1: base, Rs2: b3 % isa.NumRegs, Imm: imm,
			}
		case sel < 215: // control flow: aligned hops inside the region
			off := (int32(int8(b2)) % 24) * isa.InstrSize
			if off == 0 {
				off = isa.InstrSize
			}
			switch {
			case sel < 202:
				in = isa.Instr{
					Op:  bfBranchOps[int(b1)%len(bfBranchOps)],
					Rs1: b2 % isa.NumRegs, Rs2: b3 % isa.NumRegs, Imm: off,
				}
			case sel >= 210:
				// An indirect jump off the code base to one of the
				// program's first 32 words; in half of them rd == rs1,
				// so the target must be read before the link write.
				in = isa.Instr{Op: isa.OpJALR, Rd: b2 % isa.NumRegs, Rs1: 9, Imm: int32(b1%32) * isa.InstrSize}
				if b3&1 == 0 {
					in.Rd = 9
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
		if sel%8 == 7 { // x0's alias, in the field sel's upper bits pick
			switch (sel >> 3) % 3 {
			case 0:
				in.Rd = isa.NumRegs
			case 1:
				in.Rs1 = isa.NumRegs
			default:
				in.Rs2 = isa.NumRegs
			}
		}
		words = append(words, in.Encode())
	}
	words = append(words, isa.Instr{Op: isa.OpHALT}.Encode())
	return words, events
}

// bfState snapshots everything the two engines must agree on.
type bfState struct {
	res    RunResult
	regs   [isa.NumRegs]uint64
	pc     uint64
	cycles uint64
	mode   isa.Priv
	tlb    [4]uint64
	l1     [3]uint64
	l2     [3]uint64
	l1Ways []cache.LineState
	l2Ways []cache.LineState
	causes []isa.Cause
	values []uint64
	code   []byte
	alt    []byte
	data   []byte
}

// bfSteps is the instruction budget of one differential run.
const bfSteps = 4096

// bfShape reshapes a differential run's machine so that paths rare on
// the configured one become common. The zero value changes nothing.
type bfShape struct {
	tlbEntries int         // nonzero: the TLB holds this many translations, so fills evict
	l1Ways     int         // nonzero: the L1 has this many ways a set, so data fills evict code lines
	cow        []uint64    // physical pages frozen copy-on-write before the run
	core       func(*Core) // if set, reprograms the core before the run
}

// bfRun runs words on a fresh machine with engine, reshaped by shape,
// with data (if non-nil) loaded at the start of the data pages,
// applying events between run slices, and returns the end state and
// the core. The result's Steps is the total over the slices.
func bfRun(t *testing.T, kind IsolationKind, engine bfEngine, shape bfShape, words []uint64, data []byte, events []bfEvent) (bfState, *Core) {
	t.Helper()
	m, c := bfMachine(t, kind, engine, 1, words)
	if shape.tlbEntries > 0 {
		c.TLB = tlb.New(shape.tlbEntries)
	}
	if shape.l1Ways > 0 {
		cfg := c.L1.Config()
		cfg.Ways = shape.l1Ways
		c.L1 = cache.New(cfg)
	}
	if err := m.Mem.WriteBytes(bfDataPA, data); err != nil {
		t.Fatal(err)
	}
	for _, pa := range shape.cow {
		m.Mem.MarkCOW(pa)
	}
	if shape.core != nil {
		shape.core(c)
	}
	fw := &skipFirmware{}
	m.Firmware = fw
	var res RunResult
	steps := 0
	run := func(n int) {
		r, err := m.Run(0, n)
		if err != nil {
			t.Fatal(err)
		}
		steps += r.Steps
		res = r
	}
	for _, ev := range events {
		if ev.after >= bfSteps-steps {
			break
		}
		if run(ev.after); res.Reason == StopHalt {
			break
		}
		bfApply(t, m, c, ev, words)
	}
	if res.Reason != StopHalt {
		run(bfSteps - steps)
	}
	res.Steps = steps
	return bfSnapshot(t, m, c, res, fw), c
}

// bfSnapshot captures the end state of a run of core c of m that ended
// with res, whose traps fw recorded.
func bfSnapshot(t *testing.T, m *Machine, c *Core, res RunResult, fw *skipFirmware) bfState {
	t.Helper()
	s := bfState{
		res: res, regs: c.CPU.Regs, pc: c.CPU.PC, cycles: c.CPU.Cycles, mode: c.CPU.Mode,
		tlb:    [4]uint64{c.TLB.Hits, c.TLB.Misses, c.TLB.Flushes, c.TLB.Shootdown},
		l1:     [3]uint64{c.L1.Hits, c.L1.Misses, c.L1.Evictions},
		l2:     [3]uint64{m.L2.Hits, m.L2.Misses, m.L2.Evictions},
		l1Ways: c.L1.Snapshot(), l2Ways: m.L2.Snapshot(),
		causes: fw.causes, values: fw.values,
		code: make([]byte, bfCodeLen), alt: make([]byte, bfCodeLen), data: make([]byte, bfDataLen),
	}
	if err := m.Mem.ReadBytes(bfCodePA, s.code); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.ReadBytes(bfAltPA, s.alt); err != nil {
		t.Fatal(err)
	}
	if err := m.Mem.ReadBytes(bfDataPA, s.data); err != nil {
		t.Fatal(err)
	}
	return s
}

// bfCompare runs words on the production engine and on the reference
// interpreter, with data (if non-nil) loaded at the start of the data
// pages and events applied to both between run slices, and requires
// identical end states. It returns the production engine's core, for
// checks of the block engine's own counters and blocks.
func bfCompare(t *testing.T, kind IsolationKind, words []uint64, data []byte, events ...bfEvent) *Core {
	t.Helper()
	return bfCompareShape(t, kind, bfShape{}, words, data, events)
}

// bfCompareShape is bfCompare on machines reshaped by shape.
func bfCompareShape(t *testing.T, kind IsolationKind, shape bfShape, words []uint64, data []byte, events []bfEvent) *Core {
	t.Helper()
	blk, c := bfRun(t, kind, bfBlocks, shape, words, data, events)
	ref, _ := bfRun(t, kind, bfReference, shape, words, data, events)
	bfDiff(t, kind, blk, ref)
	return c
}

// bfDiff requires identical end states of the production engine (blk)
// and the reference interpreter (ref).
func bfDiff(t *testing.T, kind IsolationKind, blk, ref bfState) {
	t.Helper()
	if blk.res.Reason != ref.res.Reason || blk.res.Steps != ref.res.Steps {
		t.Errorf("%v: stop block %v/%d, reference %v/%d",
			kind, blk.res.Reason, blk.res.Steps, ref.res.Reason, ref.res.Steps)
	}
	if blk.regs != ref.regs {
		t.Errorf("%v: register files differ:\nblock %v\nref   %v", kind, blk.regs, ref.regs)
	}
	if blk.pc != ref.pc || blk.cycles != ref.cycles || blk.mode != ref.mode {
		t.Errorf("%v: pc/cycles/mode block %#x/%d/%v, reference %#x/%d/%v",
			kind, blk.pc, blk.cycles, blk.mode, ref.pc, ref.cycles, ref.mode)
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
		if blk.alt[i] != ref.alt[i] {
			t.Fatalf("%v: alternate code byte %#x differs: block %#x, reference %#x",
				kind, i, blk.alt[i], ref.alt[i])
		}
	}
	for i := range blk.data {
		if blk.data[i] != ref.data[i] {
			t.Fatalf("%v: data byte %#x differs: block %#x, reference %#x",
				kind, i, blk.data[i], ref.data[i])
		}
	}
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

// bfL1Ways maps a fuzz byte to the L1's associativity: the default 4
// ways, or a direct-mapped or 2-way L1 where data fills evict code lines
// and the other stream's line, so crossing fills that spare no ref are
// common.
func bfL1Ways(b uint8) int { return []int{0, 1, 2}[b%3] }

// FuzzBlockDifferential is the open-ended harness; CI runs it with
// -fuzz, briefly on every change and for an extended period nightly.
// Each input — an L1 shape byte (bfL1Ways) and the program and event
// bytes (bfGenerate) — drives all three isolation backends.
func FuzzBlockDifferential(f *testing.F) {
	// Seeds aimed at the interesting regimes: a tight ALU loop, a
	// store-over-code sequence, page-straddling and unmapped accesses,
	// raw garbage, and a backward-branch loop interrupted by one event
	// of each kind.
	f.Add(uint8(0), []byte{0, 0, 7, 7, 0, 13, 7, 1, 200, 0, 7, 240})
	f.Add(uint8(0), []byte{150, 10, 1, 8, 150, 7, 0x11, 3, 150, 3, 2, 200})
	f.Add(uint8(0), []byte{0, 22, 5, 2, 160, 1, 9, 0, 0, 0, 6, 6, 210, 0, 5, 0})
	f.Add(uint8(0), []byte{243, 1, 2, 3, 230, 9, 9, 9, 220, 0, 3, 0})
	f.Add(uint8(0), []byte{
		0, 13, 7, 1, 0, 0, 7, 7, 200, 0, 0xfe, 0, // ADDI, ADD, a BEQ back to the ADDI
		244, 0, 40, 0, 245, 1, 30, 0, 246, 2, 20, 1, 247, 3, 50, 3, 248, 4, 10, 0, 249, 5, 60, 0,
		247, 0, 5, 0, 249, 3, 80, 3, 244, 6, 70, 6,
	})
	// Stride loops: a width-8 loop with a stride of 12, whose passes
	// misalign every other time, on a direct-mapped L1; and 4-byte loads
	// with 8-byte stores at a stride of 12, whose stores alone misalign,
	// on a 2-way L1.
	f.Add(uint8(1), []byte{184, 0x33, 0x40, 0x0a})
	f.Add(uint8(2), []byte{184, 0x2a, 0x40, 0x8a})
	// Stride loops whose steady passes batch: 8-byte words to the next
	// page; 4-byte words at a stride of 8 down from two pages on, on a
	// 2-way L1; and bytes.
	f.Add(uint8(0), []byte{184, 0xe3, 0x40, 0x0a})
	f.Add(uint8(2), []byte{184, 0xe6, 0x40, 0x0f})
	f.Add(uint8(0), []byte{184, 0xe0, 0x05, 0x0a})
	rng := rand.New(rand.NewSource(7))
	long := make([]byte, 256)
	rng.Read(long)
	f.Add(uint8(0), long)
	f.Fuzz(func(t *testing.T, l1 uint8, data []byte) {
		words, events := bfGenerate(data)
		shape := bfShape{l1Ways: bfL1Ways(l1)}
		for _, kind := range []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone} {
			bfCompareShape(t, kind, shape, words, nil, events)
		}
	})
}

// TestBlockDifferentialRandom is the always-on slice of the fuzzer: a
// fixed-seed batch of generated programs through the same comparator,
// on every L1 shape the fuzzer draws, so tier-1 CI exercises the
// differential property without -fuzz. The generated stride loops must
// reach steady passes, and batched ones.
func TestBlockDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	kinds := []IsolationKind{IsolationNone, IsolationSanctum, IsolationKeystone}
	var steady, batched uint64
	for i := 0; i < 150; i++ {
		data := make([]byte, 64+rng.Intn(192))
		rng.Read(data)
		words, events := bfGenerate(data)
		shape := bfShape{l1Ways: bfL1Ways(uint8(i / len(kinds)))}
		bs := bfCompareShape(t, kinds[i%len(kinds)], shape, words, nil, events).BlockStats()
		steady, batched = steady+bs.Steady, batched+bs.Batched
	}
	if steady == 0 || batched == 0 {
		t.Fatalf("the generated programs ran %d steady passes, %d batched; want some of each", steady, batched)
	}
	t.Logf("%d steady passes, %d batched", steady, batched)
}
