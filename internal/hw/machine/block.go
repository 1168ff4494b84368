package machine

import (
	"slices"

	"sanctorum/internal/hw/cache"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
)

// Trace-compiled superinstruction blocks (DESIGN.md §11).
//
// The per-instruction fast path (bus.go) still pays fetch validation,
// decode dispatch and statistic updates once per instruction. This file
// adds a second tier on top of it: straight-line runs of hot code are
// compiled into blocks of fused closures (internal/isa/block.go) that
// execute the whole run with the scaffolding hoisted to segment
// granularity. Like the rest of the fast path, the tier is purely a
// host-side accelerator: modeled cycles, TLB and cache statistics,
// trap causes and deterministic replay are bit-identical to the
// reference interpreter, which the equivalence and differential-fuzz
// tests enforce.
//
// A block is discovered when a control-transfer target crosses the heat
// threshold, and traces decoded instructions from its entry VA up to and
// including the first control-flow instruction — or up to (excluding)
// the first system op (ECALL, EBREAK, HALT, RDCYCLE), illegal word,
// page boundary or the length cap. A plain jump (JAL x0) whose aligned
// target lies in the same page and walk root, is not the entry and is
// not already in the block is followed rather than ending the trace: it
// retires inside the block, charging only its fetch and base cycles. A
// top-tested loop (body; j top; top: branch body) therefore compiles to
// one block whose terminal branches back to its own entry, which
// execBlock chains. Blocks never span pages, so one translation covers
// every fetch in the block; a block records each instruction's VA, and
// each segment records its first VA, the resume PC of a guard bail.
//
// The block is divided into segments: a segment is a maximal run whose
// only observable effects are register updates, ended by a memory
// access (which must stay ordered against the fetches around it) or by
// the terminal. Each segment is compiled into ONE closure that:
//
//   - re-checks the guard word (decode-cache generation + TLB
//     generation + privilege mode) unless the previous segment proved
//     it could not have moved: any code write, translation mutation or
//     domain switch bails back to the interpreter at an exact
//     instruction boundary;
//   - batches the segment's instruction fetches: TLB.Hits advances by
//     the segment length (each fetch is a guaranteed TLB hit while the
//     guard holds), and the L1 touches collapse into one TouchFastN
//     per cache line, bit-exact to the per-fetch sequence because
//     nothing else touches the cache between them;
//   - batches the base cycle cost of the segment's fused ops into one
//     addition (exact: fused ALU ops cannot trap, so entering the
//     segment implies they all retire);
//   - runs the fused register kernels and, inline, the memory-op body
//     (the exact Core.Load/Store fast-path sequence) or the terminal.
//
// Guard elision: a segment that ends in a load served by the
// last-translation cache provably touched neither the decode-cache
// generation nor the TLB generation, so the next segment's guard is
// skipped (segClean). A store decides by the code-page check the fused
// window store already performs: a store into a marked code page bumped
// the generation and forces the next guard (segDirty), while a
// data-page store through a still-live translation provably left the
// guard word unmoved (segClean). Loads that re-walked stay
// conservative (segDirty). Same-core self-modification is therefore
// still exact to the instruction boundary; mutations from OTHER harts
// are instead caught at poll boundaries, below.
//
// Asynchronous events are polled — and the guard unconditionally
// re-checked — at poll boundaries: every chained pass for long blocks,
// every blockCap/n passes for a short loop body, so the interval is at
// most blockCap retired instructions either way. Poll boundaries are
// instruction boundaries — the architectural contract of the PR 2
// event word and the IPI protocol — and the cap bounds both the added
// event-delivery latency and the staleness window for cross-hart code
// writes or translation mutations. In the deterministic scheduler the
// pending word only changes at dispatch boundaries, so delivery points
// are unchanged and replay stays byte-identical. Blocks only run from
// Machine.Run's timer-idle hot loop, and only when the remaining step
// budget covers the whole block, so RunResult.Steps is unaffected.
//
// Invalidation rides the existing generation machinery: the guard word
// covers icGen (code writes, TLB teardown, domain switches) and the TLB
// generation + mode pack. A stale block is first revalidated — if the
// decode cache holds a live entry for the same VA→PA mapping and the
// block's words compare equal, only the generations are refreshed —
// so the steady-state cost of a domain switch is one interpreted pass
// per block, not a recompile.

const (
	// bcEntries is the per-core block cache size (direct-mapped on the
	// entry VA's instruction index, like the decode cache).
	bcEntries = 256

	// blockCap bounds block length, which bounds both the asynchronous-
	// event delivery latency added by block-boundary polling and the
	// work replayed when a guard bails.
	blockCap = 32

	// blockMinLen is the shortest run worth a block: below it the entry
	// bookkeeping eats the win and the site is negatively cached.
	blockMinLen = 2

	// defaultBlockHot is the execution count at which a control-transfer
	// target is compiled. Low enough that short-lived phases (an enclave
	// service loop between domain switches) still promote, high enough
	// that straight-line cold code never pays a compile.
	defaultBlockHot = 16
)

// regIdxMask reduces a pre-masked register index for the compiler's
// benefit: operand fields are already < NumRegs, and the explicit mask
// lets every cpu.Regs access elide its bounds check.
const regIdxMask = isa.NumRegs - 1

// Segment closure status codes.
const (
	segStop  = iota // trap or guard bail; details in Core.brun
	segDirty        // continue; the next segment must re-check the guard
	segClean        // continue; the guard word provably did not move
)

// BlockStats counts the block engine's activity on one core; purely
// observational (host-side), exposed for cmd/experiments and tests.
type BlockStats struct {
	Compiled      uint64 // blocks built (including recompiles)
	Rejected      uint64 // hot sites refused (too short / unfusible head)
	Executions    uint64 // completed straight-line passes
	Loops         uint64 // back-to-back re-entries without leaving the engine
	Instrs        uint64 // instructions retired inside blocks
	GuardBails    uint64 // mid-block guard misses (fell back to interpreter)
	Revalidations uint64 // stale blocks revived without recompiling
	Invalidations uint64 // stale blocks that failed revalidation (dead until recompiled)
}

// BlockStats returns the core's block-engine counters.
func (c *Core) BlockStats() BlockStats { return c.bstats }

// blockRun is the per-core scratch a block execution communicates
// through: base is the instruction count retired by completed passes,
// retired/trap are set by a segment closure returning segStop.
type blockRun struct {
	base    int
	retired int
	trap    *isa.Trap
}

// fetchRun is one run of consecutive instruction fetches from a single
// L1 line within a segment.
type fetchRun struct {
	line int    // index into block.lrefs
	off  uint64 // page offset of the run's first instruction word
	n    uint64 // number of fetches in the run
}

// block is one compiled superinstruction chain.
type block struct {
	entryVA uint64
	fallPC  uint64          // PC after a pass with no terminal
	paPage  uint64          // physical page holding the block's code
	icGen   uint64          // guard: core's decode-cache generation at (re)validation
	tgMode  uint64          // guard: TLB generation + privilege mode pack
	root    uint64          // page-table root every VA in the block walks from
	n       int             // total instructions; 0 marks a negative-cache entry
	hasTerm bool            // ends in control flow (else falls through to fallPC)
	words   []uint64        // original instruction words, for revalidation
	vas     []uint64        // each instruction's VA, in execution order
	lrefs   []cache.LineRef // L1 refs for the code lines, shared by segments
	segs    []segEnv        // fused segments, in execution order
}

// blockFor returns a ready-to-execute block for pc, or nil to stay on
// the per-instruction path. It is called only at control-transfer
// targets (Run tracks sequentiality), so the heat accounting below
// counts block-entry candidates, not every instruction.
func (c *Core) blockFor(pc uint64) *block {
	if c.blockHot == 0 || c.CPU.Halted {
		return nil
	}
	b := c.blocks[(pc>>3)&(bcEntries-1)]
	if b == nil || b.entryVA != pc {
		h := &c.icHot[(pc>>3)&(icEntries-1)]
		*h++
		if *h >= c.blockHot {
			*h = 0
			return c.compileBlock(pc)
		}
		return nil
	}
	if b.n == 0 {
		// Negative cache: the site head is unfusible or too short. Only
		// a code change (icGen) can alter that verdict.
		if b.icGen == c.icGen.Load() {
			return nil
		}
		return c.compileBlock(pc)
	}
	if b.icGen == c.icGen.Load() && b.tgMode == tgMode(c.TLB.Gen(), c.CPU.Mode) {
		if root, _ := c.walkRoot(pc); root == b.root {
			return b
		}
		return nil
	}
	if c.revalidateBlock(b) {
		return b
	}
	c.bstats.Invalidations++
	return nil
}

// execBlock runs a validated block, looping back over it while it
// branches to its own entry (the hot-loop shape) with no pending event
// and enough step budget. It returns the number of instructions retired
// and the trap that ended execution, if any. On any exit — completion,
// guard bail, trap — CPU.PC and the modeled state sit exactly where the
// per-instruction engine would have left them.
func (c *Core) execBlock(b *block, budget int) (int, *isa.Trap) {
	c.brun.base = 0
	c.brun.trap = nil
	passes := 0
	// blockFor validated the guard word on entry, so the first segment
	// starts clean.
	st := segClean
	segs := b.segs
	cpu := &c.CPU
	// Guard re-checks and event polls are batched across chained passes
	// up to the block cap, so a short loop body pays the atomic loads at
	// the same ≤blockCap-instruction interval a maximal block would.
	stride := blockCap / b.n
	sincePoll := 0
	// Fetch TLB hits advance once per pass: every fetch in the block is
	// a guaranteed TLB hit while the guard holds. A mid-pass stop rolls
	// back the fetches that did not happen — the bailing point's retired
	// count is exactly the instructions whose fetches were accounted
	// (a guard bail counted only the prior segments, a memory trap also
	// counted the trapping segment's own fetches, which precede its
	// memory access).
	nHits := uint64(b.n)
	for {
		c.TLB.Hits += nHits
		for i := range segs {
			if st = segs[i].run(c, cpu, st == segClean); st == segStop {
				c.TLB.Hits -= nHits - uint64(c.brun.retired-c.brun.base)
				c.bstats.Instrs += uint64(c.brun.retired)
				c.bstats.Executions += uint64(passes)
				return c.brun.retired, c.brun.trap
			}
		}
		passes++
		c.brun.base += b.n
		if !b.hasTerm {
			cpu.PC = b.fallPC
		}
		if cpu.PC != b.entryVA || c.brun.base+b.n > budget {
			c.bstats.Instrs += uint64(c.brun.base)
			c.bstats.Executions += uint64(passes)
			c.bstats.Loops += uint64(passes - 1)
			return c.brun.base, nil
		}
		if sincePoll++; sincePoll >= stride {
			sincePoll = 0
			if c.pending.Load() != 0 {
				c.bstats.Instrs += uint64(c.brun.base)
				c.bstats.Executions += uint64(passes)
				c.bstats.Loops += uint64(passes - 1)
				return c.brun.base, nil
			}
			// Poll boundary: re-check the guard, so a cross-hart code
			// write is seen within blockCap retired instructions even by
			// an all-clean loop. Between polls the next pass inherits the
			// last segment's verdict — a store already forced dirty, and
			// clean segments provably left the guard word unmoved.
			st = segDirty
		}
	}
}

// guardFail records a guard bail at the start of segment e and points
// the PC at its first, un-executed instruction. The resume PC is the
// segment's own first VA — after a followed jump it is not entry +
// offset — while the retired count also carries the chained passes
// completed before this one.
func (c *Core) guardFail(e *segEnv) {
	c.CPU.PC = e.startVA
	c.brun.retired = c.brun.base + e.segBase
	c.bstats.GuardBails++
}

// memTrap records a trap from a segment's memory op, which is the
// segment's last instruction: like the interpreter, the trapping
// instruction counts as a retired step, and the kernel already left
// PC on it.
func (c *Core) memTrap(segEnd int, tr *isa.Trap) {
	c.brun.retired = c.brun.base + segEnd
	c.brun.trap = tr
}

// fetchChargeSlow is the exact per-fetch fallback when a segment's
// batched L1 touch fails (the line left its way, or a flush took it): the
// hit-or-refill sequence of the per-instruction fetch path, which also
// re-arms the ref for the next pass.
func (c *Core) fetchChargeSlow(pa uint64, ref *cache.LineRef, n uint64) uint64 {
	var cyc uint64
	for k := uint64(0); k < n; k++ {
		if c.L1.TouchFast(pa, ref) {
			cyc += c.l1Hit
		} else {
			cyc += c.cachedAccessRef(pa, ref)
		}
	}
	return cyc
}

// segSpec collects one segment during compilation, before it is fused
// into its closure.
type segSpec struct {
	base    int    // instructions retired before this segment
	n       int    // instructions in this segment
	startVA uint64 // VA of the segment's first instruction
	static  uint64 // batched base cycle cost
	fetch   []fetchRun
	alu     []isa.Instr // fused computational ops, in execution order
	isMem   bool        // the segment ends in a load or store
	mem     isa.Instr   // the trailing load/store
	memVA   uint64
	term    func(*isa.CPU) uint64 // block terminal (last segment only)
	termIn  isa.Instr             // the terminal instruction, for uop fusion
	termVA  uint64
}

// segFetchMulti is the fetch-accounting loop for the rare segment that
// straddles L1 lines; split out so the common single-line case keeps the
// segment closures' frames small.
func (c *Core) segFetchMulti(b *block, runs []fetchRun) uint64 {
	var cyc uint64
	for fi := range runs {
		f := &runs[fi]
		pa := b.paPage | f.off
		if c.L1.TouchFastN(pa, &b.lrefs[f.line], f.n) {
			cyc += f.n * c.l1Hit
		} else {
			cyc += c.fetchChargeSlow(pa, &b.lrefs[f.line], f.n)
		}
	}
	return cyc
}

// segMemWalk is a segment memory op's translation miss: the full
// translateFast path, recording the trap on a fault. Split out of the
// segment closures so their hot frames hold no fault pointer.
func (c *Core) segMemWalk(tc *transCache, isLoad bool, addr, w64, memVA uint64, segEnd int) (uint64, bool) {
	acc := pt.Store
	if isLoad {
		acc = pt.Load
	}
	pa, walkCyc, fault := c.translateFast(tc, addr, w64, acc)
	c.CPU.Cycles += walkCyc
	if fault == nil {
		return pa, true
	}
	c.CPU.PC = memVA
	cause := fault.StoreCause()
	if isLoad {
		cause = fault.LoadCause()
	}
	c.memTrap(segEnd, c.CPU.Trapped(cause, memVA, fault.Addr))
	return 0, false
}

// segAlignTrap records a misaligned segment memory op.
func (c *Core) segAlignTrap(isLoad bool, memVA, addr uint64, segEnd int) {
	cpu := &c.CPU
	cpu.PC = memVA
	cause := isa.CauseMisalignedStore
	if isLoad {
		cause = isa.CauseMisalignedLoad
	}
	c.memTrap(segEnd, cpu.Trapped(cause, memVA, addr))
}

// segCOWTrap records a segment store hitting a copy-on-write page.
func (c *Core) segCOWTrap(memVA, addr uint64, segEnd int) {
	c.CPU.PC = memVA
	c.memTrap(segEnd, c.CPU.Trapped(isa.CauseStoreAccess, memVA, addr))
}

// aluUop is one fused computational op. The common direct-register ops
// (isa.BlockUop's set) carry a non-zero kind and execute inline in
// segEnv.run's switch; everything else — x0 operands, shifts by
// register, compares, mul/div — keeps kind 0 and calls the BlockALU
// kernel fn. The inline cases must mirror the direct-form BlockALU
// kernels exactly.
type aluUop struct {
	fn       func(*isa.CPU) // BlockALU kernel; nil when kind != 0
	imm      uint64         // pre-extended immediate / pre-masked shift
	kind     uint8          // isa.Uop* constant, 0 = use fn
	rd, a, b uint8          // pre-masked register indices
}

// segEnv is one fused segment: every constant its run method needs,
// resolved at compile time and laid out flat so a pass touches only
// this struct (the block's segs slice is contiguous), the register file
// and the guarded machine state — no interpretive structures. A plain
// struct + method beats a closure here: the method call is static, and
// fields are loaded on demand instead of the closure prologue copying
// the whole environment per call.
type segEnv struct {
	b *block

	segBase int    // instructions retired before this segment
	segEnd  int    // segBase + segment length
	startVA uint64 // VA of the first instruction: a guard bail resumes here
	static  uint64 // batched base cycle cost of the fused ops

	// Fetch accounting. The single-line case covers nearly every
	// segment (a segment spans two L1 lines only when it straddles
	// one); multi-line segments keep their runs in fetchRest.
	fetch1    bool
	pa0       uint64 // physical address of the first fetch
	fn0       uint64 // fetches on the line
	hit0      uint64 // fn0 * L1 hit cycles
	ref0      *cache.LineRef
	fetchRest []fetchRun

	// Register micro-ops, inline array three deep (longer tails are
	// rare and spill to aluRest as plain kernels).
	nalu    int
	alu     [3]aluUop
	aluRest []func(*isa.CPU)

	// Terminal (last segment only). The common constant-target forms
	// (JAL, direct-register branches) execute inline through termKind's
	// switch; the rest (JALR, x0-operand branches) call the term closure.
	term          func(*isa.CPU) uint64
	termKind      uint8
	tA, tB, tRd   uint8
	tTaken, tFall uint64

	// Trailing memory op (zero values when the segment has none).
	isMem, isLoad, signed, direct bool
	width                         int
	w64, wmask, imm               uint64
	rs1, rs2, rd                  uint8
	memVA                         uint64
}

// buildSeg fuses one segment.
func (c *Core) buildSeg(b *block, s segSpec) segEnv {
	f0 := s.fetch[0]
	e := segEnv{
		b:       b,
		segBase: s.base,
		segEnd:  s.base + s.n,
		startVA: s.startVA,
		static:  s.static,
		fetch1:  len(s.fetch) == 1,
		pa0:     b.paPage | f0.off,
		fn0:     f0.n,
		hit0:    f0.n * c.l1Hit,
		ref0:    &b.lrefs[f0.line],
		term:    s.term,
	}
	if !e.fetch1 {
		e.fetchRest = slices.Clone(s.fetch) // s.fetch is compileBlock's scratch
	}
	e.nalu = len(s.alu)
	if e.nalu > 3 {
		e.nalu = 3
	}
	for i := 0; i < e.nalu; i++ {
		in := s.alu[i]
		if kind, rd, a, b, imm, ok := isa.BlockUop(in); ok {
			e.alu[i] = aluUop{kind: kind, rd: rd, a: a, b: b, imm: imm}
		} else {
			e.alu[i] = aluUop{fn: isa.BlockALU(in)}
		}
	}
	for i := 3; i < len(s.alu); i++ {
		e.aluRest = append(e.aluRest, isa.BlockALU(s.alu[i]))
	}
	if s.isMem {
		in := s.mem
		e.isMem = true
		e.memVA = s.memVA
		e.isLoad = isa.IsLoad(in.Op)
		if e.isLoad {
			e.width, e.signed = isa.LoadSpec(in.Op)
			e.direct = in.Rd != isa.RegZero && in.Rs1 != isa.RegZero
		} else {
			e.width = isa.StoreSpec(in.Op)
			e.direct = in.Rs1 != isa.RegZero && in.Rs2 != isa.RegZero
		}
		e.w64 = uint64(e.width)
		e.wmask = e.w64 - 1
		e.imm = uint64(int64(in.Imm))
		e.rs1, e.rs2, e.rd = in.Rs1%isa.NumRegs, in.Rs2%isa.NumRegs, in.Rd%isa.NumRegs
	}
	if s.term != nil {
		if kind, a, bb, rd, taken, fall, ok := isa.BlockTermUop(s.termIn, s.termVA); ok {
			e.term = nil
			e.termKind, e.tA, e.tB, e.tRd = kind, a, bb, rd
			e.tTaken, e.tFall = taken, fall
		}
	}
	return e
}

// run executes the segment. clean elides the guard (the previous
// segment proved the guard word stable). c and cpu are passed in so
// the per-segment prologue does no pointer chasing of its own.
func (e *segEnv) run(c *Core, cpu *isa.CPU, clean bool) int {
	// Guard (elided when the previous segment proved it stable).
	if !clean && (e.b.icGen != c.icGen.Load() || e.b.tgMode != tgMode(c.TLB.Gen(), cpu.Mode)) {
		c.guardFail(e)
		return segStop
	}
	// Batched fetch accounting for the whole segment: each fetch is a
	// guaranteed TLB hit under the guard (execBlock advances TLB.Hits
	// for the whole pass at once), and the L1 touches collapse per
	// line. A dead line ref falls back to the exact per-fetch sequence.
	cyc := e.static
	if e.fetch1 {
		if c.L1.TouchFastN(e.pa0, e.ref0, e.fn0) {
			cyc += e.hit0
		} else {
			cyc += c.fetchChargeSlow(e.pa0, e.ref0, e.fn0)
		}
	} else {
		cyc += c.segFetchMulti(e.b, e.fetchRest)
	}
	cpu.Cycles += cyc

	// Fused register micro-ops: the common direct-register ops execute
	// through a jump table, the rest through their BlockALU kernels.
	// Each case is the direct-form BlockALU kernel for its op, inlined.
	for i := 0; i < e.nalu; i++ {
		u := &e.alu[i]
		switch u.kind {
		case isa.UopADD:
			cpu.Regs[u.rd&regIdxMask] = cpu.Regs[u.a&regIdxMask] + cpu.Regs[u.b&regIdxMask]
		case isa.UopSUB:
			cpu.Regs[u.rd&regIdxMask] = cpu.Regs[u.a&regIdxMask] - cpu.Regs[u.b&regIdxMask]
		case isa.UopAND:
			cpu.Regs[u.rd&regIdxMask] = cpu.Regs[u.a&regIdxMask] & cpu.Regs[u.b&regIdxMask]
		case isa.UopOR:
			cpu.Regs[u.rd&regIdxMask] = cpu.Regs[u.a&regIdxMask] | cpu.Regs[u.b&regIdxMask]
		case isa.UopXOR:
			cpu.Regs[u.rd&regIdxMask] = cpu.Regs[u.a&regIdxMask] ^ cpu.Regs[u.b&regIdxMask]
		case isa.UopADDI:
			cpu.Regs[u.rd&regIdxMask] = cpu.Regs[u.a&regIdxMask] + u.imm
		case isa.UopANDI:
			cpu.Regs[u.rd&regIdxMask] = cpu.Regs[u.a&regIdxMask] & u.imm
		case isa.UopORI:
			cpu.Regs[u.rd&regIdxMask] = cpu.Regs[u.a&regIdxMask] | u.imm
		case isa.UopXORI:
			cpu.Regs[u.rd&regIdxMask] = cpu.Regs[u.a&regIdxMask] ^ u.imm
		case isa.UopSLLI:
			cpu.Regs[u.rd&regIdxMask] = cpu.Regs[u.a&regIdxMask] << u.imm
		case isa.UopSRLI:
			cpu.Regs[u.rd&regIdxMask] = cpu.Regs[u.a&regIdxMask] >> u.imm
		case isa.UopLI:
			cpu.Regs[u.rd&regIdxMask] = u.imm
		default:
			u.fn(cpu)
		}
	}
	if e.aluRest != nil {
		for _, op := range e.aluRest {
			op(cpu)
		}
	}

	if e.isMem {
		// Inline memory-op body: the exact Core.Load/Store fast-path
		// sequence plus ExecDecoded's register update, minus everything
		// segment-hoisted (fetch, base cycles, PC).
		var addr uint64
		if e.direct {
			addr = cpu.Regs[e.rs1&regIdxMask] + e.imm
		} else {
			addr = cpu.Reg(e.rs1) + e.imm
		}
		if addr&e.wmask != 0 {
			c.segAlignTrap(e.isLoad, e.memVA, addr, e.segEnd)
			return segStop
		}
		clean := true
		tc, ref := &c.storeTC, &c.storeRef
		if e.isLoad {
			tc, ref = &c.loadTC, &c.loadRef
		}
		var pa uint64
		root, _ := c.walkRoot(addr)
		if root != 0 && tc.gen == c.TLB.Gen() && tc.vpn == (addr&pt.VAMask)>>mem.PageBits &&
			tc.root == root && tc.mode == cpu.Mode {
			// Last-translation cache hit: same statistic update as
			// translateFast's short-circuit, and provably no TLB or
			// decode-cache mutation.
			c.TLB.Hits++
			pa = tc.paPage | addr&uint64(mem.PageMask)
		} else {
			var ok bool
			if pa, ok = c.segMemWalk(tc, e.isLoad, addr, e.w64, e.memVA, e.segEnd); !ok {
				return segStop
			}
			clean = false
		}
		if c.L1.TouchFast(pa, ref) {
			cpu.Cycles += c.l1Hit
		} else {
			cpu.Cycles += c.cachedAccessRef(pa, ref)
		}
		if e.isLoad {
			var val uint64
			if e.width == 8 {
				val = c.loadWin.Load64(pa)
			} else {
				val = c.loadWin.LoadFast(pa, e.width)
			}
			if e.signed {
				val = isa.SignExtendVal(val, e.width)
			}
			if e.direct {
				cpu.Regs[e.rd&regIdxMask] = val
			} else {
				cpu.SetReg(e.rd, val)
			}
			if clean {
				return segClean
			}
			return segDirty
		}
		// Store: the fused window store runs the copy-on-write backstop
		// (Core.Store's), the code-page check and the write in one call.
		// The code-page verdict decides the guard: a store into a marked
		// code page bumped icGen and must force the next guard, while a
		// plain data-page store (through a still-live translation)
		// provably left the guard word unmoved.
		var val uint64
		if e.direct {
			val = cpu.Regs[e.rs2&regIdxMask]
		} else {
			val = cpu.Reg(e.rs2)
		}
		var cow, hitCode bool
		if e.width == 8 {
			cow, hitCode = c.storeWin.Store64Block(pa, val)
		} else {
			cow, hitCode = c.storeWin.StoreFastBlock(pa, e.width, val)
		}
		if cow {
			c.segCOWTrap(e.memVA, addr, e.segEnd)
			return segStop
		}
		if hitCode || !clean {
			return segDirty
		}
		return segClean
	}

	// Terminal: the constant-target forms pick between two burned-in
	// next-PC values inline; everything else calls the fused kernel.
	// Each inline case is the direct-form BlockTerm kernel for its op.
	switch e.termKind {
	case isa.TermJAL:
		if e.tRd != 0 {
			cpu.Regs[e.tRd&regIdxMask] = e.tFall
		}
		cpu.PC = e.tTaken
	case isa.TermBEQ:
		if cpu.Regs[e.tA&regIdxMask] == cpu.Regs[e.tB&regIdxMask] {
			cpu.PC = e.tTaken
		} else {
			cpu.PC = e.tFall
		}
	case isa.TermBNE:
		if cpu.Regs[e.tA&regIdxMask] != cpu.Regs[e.tB&regIdxMask] {
			cpu.PC = e.tTaken
		} else {
			cpu.PC = e.tFall
		}
	case isa.TermBLT:
		if int64(cpu.Regs[e.tA&regIdxMask]) < int64(cpu.Regs[e.tB&regIdxMask]) {
			cpu.PC = e.tTaken
		} else {
			cpu.PC = e.tFall
		}
	case isa.TermBGE:
		if int64(cpu.Regs[e.tA&regIdxMask]) >= int64(cpu.Regs[e.tB&regIdxMask]) {
			cpu.PC = e.tTaken
		} else {
			cpu.PC = e.tFall
		}
	case isa.TermBLTU:
		if cpu.Regs[e.tA&regIdxMask] < cpu.Regs[e.tB&regIdxMask] {
			cpu.PC = e.tTaken
		} else {
			cpu.PC = e.tFall
		}
	case isa.TermBGEU:
		if cpu.Regs[e.tA&regIdxMask] >= cpu.Regs[e.tB&regIdxMask] {
			cpu.PC = e.tTaken
		} else {
			cpu.PC = e.tFall
		}
	default:
		if e.term != nil {
			cpu.PC = e.term(cpu)
		}
	}
	return segClean
}

// compileBlock builds and installs a block at pc, seeded from the
// decode cache: compilation is triggered right after a fetchHit-valid
// fetch of pc, so a live entry supplies the translation (PA, root,
// generations) without touching the TLB or caches — the compile itself
// is architecturally invisible, charging no cycles and no statistics.
// Returns the block if it is immediately executable, nil otherwise.
func (c *Core) compileBlock(pc uint64) *block {
	e := &c.icache[(pc>>3)&(icEntries-1)]
	icGen := c.icGen.Load()
	tg := tgMode(c.TLB.Gen(), c.CPU.Mode)
	if e.gen != icGen || e.va != pc || e.tgMode != tg || e.tgMode == 0 {
		// No live seed (or bare translation, which the fast path never
		// promotes); stay interpreted — the heat counter will retry.
		return nil
	}
	root, _ := c.walkRoot(pc)
	if root != e.root || root == 0 {
		return nil
	}
	pageMask := uint64(mem.PageMask)
	page, paPage := pc&^pageMask, e.pa&^pageMask
	// Mark the code page BEFORE reading any word (fetchSlow's snoop race
	// protocol): a racing store that lands after the mark bumps icGen,
	// and the block carries the pre-read generation, so it can never
	// pass its guard.
	c.machine.markCodePage(paPage)

	// Trace the block in execution order. It never holds a VA twice:
	// followJump refuses a target already traced, and sequential flow
	// back into the trace (after a backward jump) ends it. The fixed
	// arrays keep the trace off the heap; the block keeps exact-size
	// copies.
	var (
		vas   [blockCap]uint64
		words [blockCap]uint64
		ins   [blockCap]isa.Instr
		n     int
		term  func(*isa.CPU) uint64
	)
	va := pc
	for n < blockCap && va&^pageMask == page && !slices.Contains(vas[:n], va) {
		if r, _ := c.walkRoot(va); r != root {
			break // evrange edge inside the page
		}
		w := c.fetchWin.LoadFast(paPage|(va&pageMask), 8)
		in := isa.Decode(w)
		vas[n], words[n], ins[n] = va, w, in
		if target, ok := c.followJump(in, va, root, vas[:n+1]); ok {
			n++
			va = target
			continue
		}
		if t := isa.BlockTerm(in, va); t != nil {
			n++
			term = t
			break
		}
		if isa.BlockALU(in) == nil && !isa.IsLoad(in.Op) && !isa.IsStore(in.Op) {
			break // system op, HALT, RDCYCLE or illegal word: never fused
		}
		n++
		va += isa.InstrSize
	}

	idx := (pc >> 3) & (bcEntries - 1)
	if n < blockMinLen {
		c.blocks[idx] = &block{entryVA: pc, icGen: icGen}
		c.bstats.Rejected++
		return nil
	}

	b := &block{
		entryVA: pc, fallPC: va, paPage: paPage,
		icGen: icGen, tgMode: tg, root: root,
		n: n, hasTerm: term != nil,
	}
	buf := make([]uint64, 2*n)
	b.words, b.vas = buf[:n:n], buf[n:]
	copy(b.words, words[:n])
	copy(b.vas, vas[:n])

	// Each distinct L1 line of the trace gets one ref, in first-fetch
	// order; a memory op ends its segment, and so does the last op.
	var (
		lines  [blockCap]uint64
		lineOf [blockCap]int
		nl     int
		nsegs  int
	)
	lineBits := c.L1.Config().LineBits
	for i := 0; i < n; i++ {
		line := (vas[i] & pageMask) >> lineBits
		j := slices.Index(lines[:nl], line)
		if j < 0 {
			j, lines[nl] = nl, line
			nl++
		}
		lineOf[i] = j
		if isa.IsLoad(ins[i].Op) || isa.IsStore(ins[i].Op) || i == n-1 {
			nsegs++
		}
	}
	b.lrefs = make([]cache.LineRef, nl)
	b.segs = make([]segEnv, 0, nsegs)

	var (
		runs [blockCap]fetchRun
		alus [blockCap]isa.Instr
	)
	var seg segSpec
	r0, nr, a0, na := 0, 0, 0, 0 // the open segment's runs[r0:nr] and alus[a0:na]
	for i := 0; i < n; i++ {
		in, va := ins[i], vas[i]
		if nr > r0 && runs[nr-1].line == lineOf[i] {
			runs[nr-1].n++
		} else {
			runs[nr] = fetchRun{line: lineOf[i], off: va & pageMask, n: 1}
			nr++
		}
		if seg.n == 0 {
			seg.startVA = va
		}
		seg.n++
		seg.static += isa.BlockCost(in.Op)
		switch {
		case i == n-1 && term != nil:
			seg.term, seg.termIn, seg.termVA = term, in, va
		case in.Op == isa.OpJAL:
			// A followed plain jump: its fetch and base cycles only.
		case isa.IsLoad(in.Op) || isa.IsStore(in.Op):
			// A memory op always ends its segment: its data access must
			// stay ordered between the fetch before it and the fetch
			// after it, so the next fetch batch starts a new segment.
			seg.isMem, seg.mem, seg.memVA = true, in, va
		default:
			alus[na] = in
			na++
		}
		if seg.isMem || i == n-1 {
			seg.fetch, seg.alu = runs[r0:nr], alus[a0:na]
			b.segs = append(b.segs, c.buildSeg(b, seg))
			seg = segSpec{base: seg.base + seg.n}
			r0, a0 = nr, na
		}
	}
	c.blocks[idx] = b
	c.bstats.Compiled++
	return b
}

// followJump reports whether the trace continues through in at va: a
// plain jump (JAL x0) whose target is aligned, lies in the same page and
// walk root, and is not in the trace so far (seen, which includes the
// entry and in itself). It returns the jump's target.
func (c *Core) followJump(in isa.Instr, va, root uint64, seen []uint64) (uint64, bool) {
	if in.Op != isa.OpJAL || in.Rd != isa.RegZero {
		return 0, false
	}
	target := va + uint64(int64(in.Imm))
	pageMask := uint64(mem.PageMask)
	if target&(isa.InstrSize-1) != 0 || target&^pageMask != va&^pageMask || slices.Contains(seen, target) {
		return 0, false
	}
	if r, _ := c.walkRoot(target); r != root {
		return 0, false
	}
	return target, true
}

// revalidateBlock revives a block whose guard generations went stale
// without its substance changing — the common case after a domain
// switch or TLB shootdown, where recompiling every block would put a
// compile on the enclave enter/exit path. The block is revived iff the
// decode cache holds a live entry for the entry VA with the same
// VA→PA mapping (so the current translation set serves the whole page,
// at the current generations, as guaranteed TLB hits), every VA still
// walks from the same root, and the code words compare equal. Like
// compilation, revalidation is architecturally invisible.
func (c *Core) revalidateBlock(b *block) bool {
	e := &c.icache[(b.entryVA>>3)&(icEntries-1)]
	icGen := c.icGen.Load()
	tg := tgMode(c.TLB.Gen(), c.CPU.Mode)
	if e.gen != icGen || e.va != b.entryVA || e.tgMode != tg || e.tgMode == 0 {
		return false
	}
	if e.pa&^uint64(mem.PageMask) != b.paPage {
		return false // page remapped: only a recompile can retarget it
	}
	for _, va := range b.vas {
		if r, _ := c.walkRoot(va); r != e.root {
			return false
		}
	}
	c.machine.markCodePage(b.paPage) // re-mark before reading (snoop race)
	for i, w := range b.words {
		if c.fetchWin.LoadFast(b.paPage|(b.vas[i]&uint64(mem.PageMask)), 8) != w {
			return false
		}
	}
	b.icGen, b.tgMode, b.root = icGen, tg, e.root
	c.bstats.Revalidations++
	return true
}
