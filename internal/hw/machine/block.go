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
// compiled into blocks of fused segments that execute the whole run
// with the scaffolding hoisted to segment granularity. Like the rest of
// the fast path, the tier is purely a host-side accelerator: modeled
// cycles, TLB and cache statistics, trap causes and deterministic
// replay are bit-identical to the reference interpreter, which the
// equivalence and differential-fuzz tests enforce.
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
// the terminal. Each segment is compiled into one flat segEnv whose run
// method:
//
//   - re-checks the guard word (code-write generation + TLB generation
//     + privilege mode) unless the previous segment proved it could not
//     have moved: any code write, translation removal or domain switch
//     bails back to the interpreter at an exact instruction boundary;
//   - batches the segment's instruction fetches: TLB.Hits advances by
//     the segment length (each fetch is a guaranteed TLB hit while the
//     guard holds), and the L1 touches collapse into one TouchFastN
//     per cache line, bit-exact to the per-fetch sequence because
//     nothing else touches the cache between them (a steady pass, see
//     execBlock, skips their hold checks);
//   - batches the base cycle cost of the segment's fused ops into one
//     addition (exact: fused ALU ops cannot trap, so entering the
//     segment implies they all retire);
//   - runs the segment's register ops through one switch over the
//     opcode, then the memory-op body (the exact Core.Load/Store
//     fast-path sequence) or the terminal through a second.
//
// Every fused instruction is one uop: opcode, register fields reduced
// mod 32, immediate pre-extended. Each switch case is ExecDecoded's
// update for its op, applied to the register file directly. That is
// exact for x0 because x0 is hardwired in storage (CPU.Regs[0] is never
// written), so reads of x0 need no accessor, and the compiler drops ALU
// ops whose destination is x0 and skips load and link writes to it.
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
// covers icGen (moved only by a write into a marked code page) and the
// TLB generation + mode pack (moved when a translation leaves the TLB,
// e.g. by core cleaning on a domain switch). A stale block is
// revalidated against the TLB, not recompiled: if the entry page is
// resident with fetch permission for the current mode and still maps
// the block's frame, and the words compare equal when icGen moved, only
// the guard is refreshed. A domain switch therefore costs no recompile
// and no decode, only the TLB refill the model charges; a block whose
// frame or words changed is dropped, and its site re-heats.

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

// segEnv.run status codes. execBlock passes the previous segment's
// status into the next one.
const (
	segStop   = iota // trap or guard bail; details in Core.brun
	segDirty         // continue; the next segment must re-check the guard
	segClean         // continue; the guard word provably did not move
	segSteady        // segClean, and the pass is still steady (see execBlock)
)

// BlockStats counts the block engine's activity on one core; purely
// observational (host-side), exposed for cmd/experiments and tests.
type BlockStats struct {
	Compiled      uint64 // blocks built (including recompiles)
	Rejected      uint64 // hot sites refused (too short / unfusible head)
	Executions    uint64 // completed straight-line passes
	Loops         uint64 // back-to-back re-entries without leaving the engine
	Steady        uint64 // chained passes that ran steady from start to end
	Instrs        uint64 // instructions retired inside blocks
	GuardBails    uint64 // mid-block guard misses (fell back to interpreter)
	Revalidations uint64 // stale blocks revived without recompiling
	Invalidations uint64 // stale blocks dropped: frame or words changed, the site re-heats
	Decodes       uint64 // decode-cache refills that ran isa.Decode
}

// BlockStats returns the core's block-engine counters.
func (c *Core) BlockStats() BlockStats { return c.bstats }

// blockRun is the per-core scratch a block execution communicates
// through: base is the instruction count retired by completed passes,
// retired/trap are set by a segment returning segStop. ldLine and stLine
// are the VA lines (va >> L1 line bits) of the execution's last load and
// store through the checked path, the lines a steady pass tests its
// data accesses against; noLine matches no address.
type blockRun struct {
	base    int
	retired int
	trap    *isa.Trap
	ldLine  uint64
	stLine  uint64
}

const noLine = ^uint64(0)

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
	lpas    []uint64        // each code line's physical address
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
	slot := &c.blocks[(pc>>3)&(bcEntries-1)]
	b := *slot
	if b == nil || b.entryVA != pc {
		h := &c.icHot[(pc>>3)&(icEntries-1)]
		*h++
		if *h >= c.blockHot {
			*h = 0
			return c.compileBlock(pc)
		}
		return nil
	}
	icGen := c.icGen.Load()
	if b.n == 0 && b.icGen != icGen {
		// A rejected site (unfusible head, or too short) whose code may
		// have been rewritten: only new code can change the verdict.
		return c.compileBlock(pc)
	}
	live := b.icGen == icGen && b.tgMode == tgMode(c.TLB.Gen(), c.CPU.Mode)
	if live {
		root, _ := c.walkRoot(pc)
		live = root == b.root
	}
	if !live {
		switch c.revalidateBlock(b) {
		case blockStale:
			return nil
		case blockDead:
			// Free the slot, so the site heats up again and compiles
			// what its VA holds now.
			*slot = nil
			c.bstats.Invalidations++
			return nil
		}
	}
	if b.n == 0 {
		return nil // a rejected site, still holding the code it was traced on
	}
	return b
}

// execBlock runs a validated block, looping back over it while it
// branches to its own entry (the hot-loop shape) with no pending event
// and enough step budget. It returns the number of instructions retired
// and the trap that ended execution, if any. On any exit — completion,
// guard bail, trap — CPU.PC and the modeled state sit exactly where the
// per-instruction engine would have left them.
//
// A chained pass runs steady when the L1 has neither filled nor flushed
// a line since every line ref the block uses — its code lines' refs and
// the core's load and store refs — was last confirmed. A pass whose
// change count (cache.Changes) did not move from start to end confirmed
// every one of them at that count, each fetch run and data access
// through a hold check or a scan; a pass that moved it is followed by
// confirmRefs, which checks each ref's hold at the new count; and a
// steady pass, which makes no change, keeps the proof for the next. A
// steady pass charges each fetch run and each data hit through its ref
// without re-proving the hold, and tests a data access only for the VA
// line of its class's last checked access: the same line means the same
// last-translation cache hit and the same L1 line. The first access
// that fails the test, or a store that lands in a code page, hands
// over: that access and the rest of the pass run the checked path.
func (c *Core) execBlock(b *block, budget int) (int, *isa.Trap) {
	c.brun.base = 0
	c.brun.trap = nil
	c.brun.ldLine, c.brun.stLine = noLine, noLine
	passes, steady := 0, 0
	// blockFor validated the guard word on entry, so the first segment
	// starts clean.
	st := segClean
	segs := b.segs
	cpu := &c.CPU
	// The VA-line test names one walk root only while evrange does not
	// split a line; a monitor only programs page-aligned ranges.
	steadyOK := c.EvMask&(1<<c.l1LineBits-1) == 0
	proved := c.L1.Changes() // every ref holds while the count stays here
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
			if st = segs[i].run(c, cpu, st); st == segStop {
				c.TLB.Hits -= nHits - uint64(c.brun.retired-c.brun.base)
				c.bstats.Instrs += uint64(c.brun.retired)
				c.bstats.Executions += uint64(passes)
				c.bstats.Loops += uint64(passes) // the stopped pass was a re-entry too
				c.bstats.Steady += uint64(steady)
				return c.brun.retired, c.brun.trap
			}
		}
		passes++
		if st == segSteady {
			steady++
		}
		c.brun.base += b.n
		if !b.hasTerm {
			cpu.PC = b.fallPC
		}
		if cpu.PC != b.entryVA || c.brun.base+b.n > budget {
			c.bstats.Instrs += uint64(c.brun.base)
			c.bstats.Executions += uint64(passes)
			c.bstats.Loops += uint64(passes - 1)
			c.bstats.Steady += uint64(steady)
			return c.brun.base, nil
		}
		// The next pass inherits the last segment's verdict — a store
		// into code already forced dirty, and clean segments provably
		// left the guard word unmoved — and runs steady if every ref is
		// proved to hold.
		if now := c.L1.Changes(); st != segDirty && steadyOK && (now == proved || c.confirmRefs(b)) {
			proved, st = now, segSteady
		} else if st == segSteady {
			st = segClean
		}
		if sincePoll++; sincePoll >= stride {
			sincePoll = 0
			if c.pending.Load() != 0 {
				c.bstats.Instrs += uint64(c.brun.base)
				c.bstats.Executions += uint64(passes)
				c.bstats.Loops += uint64(passes - 1)
				c.bstats.Steady += uint64(steady)
				return c.brun.base, nil
			}
			// Poll boundary: re-check the guard, so a cross-hart code
			// write is seen within blockCap retired instructions even by
			// an all-clean or steady loop. A failed check leaves it to
			// the first segment, which bails.
			if st != segSteady || !c.guardHolds(b) {
				st = segDirty
			}
		}
	}
}

// confirmRefs checks, after a pass that moved L1 lines, the hold of
// every ref a steady pass would use. It reports whether each of b's
// code line refs still holds its line, and forgets a data class's last
// line whose ref no longer holds it, so that class's next access takes
// the checked path.
func (c *Core) confirmRefs(b *block) bool {
	for i := range b.lrefs {
		if !c.L1.Holds(b.lpas[i], &b.lrefs[i]) {
			return false
		}
	}
	lb, off := c.l1LineBits, uint64(mem.PageMask)
	if l := c.brun.ldLine; l != noLine && !c.L1.Holds(c.loadTC.paPage|l<<lb&off, &c.loadRef) {
		c.brun.ldLine = noLine
	}
	if l := c.brun.stLine; l != noLine && !c.L1.Holds(c.storeTC.paPage|l<<lb&off, &c.storeRef) {
		c.brun.stLine = noLine
	}
	return true
}

// guardHolds reports whether b's guard word still holds: no code write
// and no translation left the TLB since b was validated, in the same
// privilege mode.
func (c *Core) guardHolds(b *block) bool {
	return b.icGen == c.icGen.Load() && b.tgMode == tgMode(c.TLB.Gen(), c.CPU.Mode)
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
// instruction counts as a retired step, and the segment already left
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

// segSpec collects one segment during compilation, before it is built
// into its segEnv.
type segSpec struct {
	base    int    // instructions retired before this segment
	n       int    // instructions in this segment
	startVA uint64 // VA of the segment's first instruction
	static  uint64 // batched base cycle cost
	fetch   []fetchRun
	ops     []uop     // register ops, in execution order
	last    isa.Instr // the trailing load/store or terminal; NOP if none
	lastVA  uint64
}

// segFetchMulti is the fetch-accounting loop for the rare segment that
// straddles L1 lines; split out so the common single-line case keeps
// segEnv.run's frame small.
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
// translateFast path, recording the trap on a fault. Split out of
// segEnv.run so its hot frame holds no fault pointer.
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

// uop is one fused instruction: its opcode, its register fields reduced
// mod 32, and its immediate pre-extended — for an immediate shift the
// masked amount, for a branch or JAL the absolute taken target.
type uop struct {
	imm      uint64
	op       isa.Op
	rd, a, b uint8
}

// newUop fuses in, the instruction at va.
func newUop(in isa.Instr, va uint64) uop {
	u := uop{
		imm: uint64(int64(in.Imm)), op: in.Op,
		rd: in.Rd % isa.NumRegs, a: in.Rs1 % isa.NumRegs, b: in.Rs2 % isa.NumRegs,
	}
	switch in.Op {
	case isa.OpSLLI, isa.OpSRLI, isa.OpSRAI:
		u.imm &= 63
	case isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU, isa.OpJAL:
		u.imm += va
	}
	return u
}

// fusesOp reports whether in compiles to a register op: a computational
// instruction with an effect. A NOP, or an ALU op whose destination is
// x0, retires with its fetch and base cycles only.
func fusesOp(in isa.Instr) bool {
	return isa.IsALU(in.Op) && in.Op != isa.OpNOP && in.Rd%isa.NumRegs != isa.RegZero
}

// segEnv is one fused segment: every constant its run method needs,
// resolved at compile time and laid out flat so a pass touches only
// this struct (the block's segs slice is contiguous), its uops, the
// register file and the guarded machine state — no interpretive
// structures. A plain struct + method beats a closure here: the method
// call is static, and fields are loaded on demand instead of the closure
// prologue copying the whole environment per call.
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
	hits      uint64 // L1 hit cycles of the segment's fetches
	ref0      *cache.LineRef
	fetchRest []fetchRun

	ops []uop // register ops, in execution order

	// The segment's last instruction when it is a load or store (isMem)
	// or, on the last segment, the block's terminal; otherwise the zero
	// uop, a NOP.
	last                  uop
	lastVA                uint64
	isMem, isLoad, signed bool
	width                 int
	w64, wmask            uint64
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
		hits:    uint64(s.n) * c.l1Hit,
		ref0:    &b.lrefs[f0.line],
		ops:     s.ops,
		last:    newUop(s.last, s.lastVA),
		lastVA:  s.lastVA,
	}
	if !e.fetch1 {
		e.fetchRest = slices.Clone(s.fetch) // s.fetch is compileBlock's scratch
	}
	if op := s.last.Op; isa.IsLoad(op) || isa.IsStore(op) {
		e.isMem = true
		e.isLoad = isa.IsLoad(op)
		if e.isLoad {
			e.width, e.signed = isa.LoadSpec(op)
		} else {
			e.width = isa.StoreSpec(op)
		}
		e.w64 = uint64(e.width)
		e.wmask = e.w64 - 1
	}
	return e
}

// run executes the segment; st is the previous segment's status. The
// guard is re-checked only after segDirty (segClean and segSteady
// proved the guard word stable), and under segSteady the segment runs
// steady (see execBlock). c and cpu are passed in so the per-segment
// prologue does no pointer chasing of its own.
func (e *segEnv) run(c *Core, cpu *isa.CPU, st int) int {
	// Guard (elided when the previous segment proved it stable).
	if st == segDirty && !c.guardHolds(e.b) {
		c.guardFail(e)
		return segStop
	}
	// Batched fetch accounting for the whole segment: each fetch is a
	// guaranteed TLB hit under the guard (execBlock advances TLB.Hits
	// for the whole pass at once), and the L1 touches collapse per
	// line. A steady pass knows every code line's ref holds; otherwise a
	// dead ref falls back to the exact per-fetch sequence.
	cyc := e.static
	switch {
	case st == segSteady && e.fetch1:
		c.L1.TouchHeldN(e.ref0, e.fn0)
		cyc += e.hits
	case st == segSteady:
		for fi := range e.fetchRest {
			c.L1.TouchHeldN(&e.b.lrefs[e.fetchRest[fi].line], e.fetchRest[fi].n)
		}
		cyc += e.hits
	case !e.fetch1:
		cyc += c.segFetchMulti(e.b, e.fetchRest)
	case c.L1.TouchFastN(e.pa0, e.ref0, e.fn0):
		cyc += e.hits
	default:
		cyc += c.fetchChargeSlow(e.pa0, e.ref0, e.fn0)
	}
	cpu.Cycles += cyc

	// Register ops: each case is ExecDecoded's update for its op, on
	// the register file directly (see the file comment for why that is
	// exact for x0).
	for i := range e.ops {
		u := &e.ops[i]
		x, y := cpu.Regs[u.a&regIdxMask], cpu.Regs[u.b&regIdxMask]
		var v uint64
		switch u.op {
		case isa.OpADD:
			v = x + y
		case isa.OpSUB:
			v = x - y
		case isa.OpAND:
			v = x & y
		case isa.OpOR:
			v = x | y
		case isa.OpXOR:
			v = x ^ y
		case isa.OpSLL:
			v = x << (y & 63)
		case isa.OpSRL:
			v = x >> (y & 63)
		case isa.OpSRA:
			v = uint64(int64(x) >> (y & 63))
		case isa.OpSLT:
			v = b2u(int64(x) < int64(y))
		case isa.OpSLTU:
			v = b2u(x < y)
		case isa.OpMUL:
			v = x * y
		case isa.OpDIVU:
			v = ^uint64(0) // RISC-V semantics: no trap
			if y != 0 {
				v = x / y
			}
		case isa.OpREMU:
			v = x
			if y != 0 {
				v = x % y
			}
		case isa.OpADDI:
			v = x + u.imm
		case isa.OpANDI:
			v = x & u.imm
		case isa.OpORI:
			v = x | u.imm
		case isa.OpXORI:
			v = x ^ u.imm
		case isa.OpSLLI:
			v = x << u.imm
		case isa.OpSRLI:
			v = x >> u.imm
		case isa.OpSRAI:
			v = uint64(int64(x) >> u.imm)
		case isa.OpSLTI:
			v = b2u(int64(x) < int64(u.imm))
		case isa.OpSLTIU:
			v = b2u(x < u.imm)
		case isa.OpLI:
			v = u.imm
		}
		cpu.Regs[u.rd&regIdxMask] = v
	}

	u := &e.last
	if e.isMem {
		// Memory-op body: the exact Core.Load/Store fast-path sequence
		// plus ExecDecoded's register update, minus everything
		// segment-hoisted (fetch, base cycles, PC).
		addr := cpu.Regs[u.a&regIdxMask] + u.imm
		if addr&e.wmask != 0 {
			c.segAlignTrap(e.isLoad, e.lastVA, addr, e.segEnd)
			return segStop
		}
		tc, ref, line := &c.storeTC, &c.storeRef, &c.brun.stLine
		if e.isLoad {
			tc, ref, line = &c.loadTC, &c.loadRef, &c.brun.ldLine
		}
		next := segSteady
		var pa uint64
		if st == segSteady && addr>>c.l1LineBits == *line {
			// Steady: the line of the class's last access, so a hit in
			// its last-translation cache and through its ref.
			c.TLB.Hits++
			c.L1.TouchHeldN(ref, 1)
			cpu.Cycles += c.l1Hit
			pa = tc.paPage | addr&uint64(mem.PageMask)
		} else {
			// The checked path, which also hands a steady pass over. It
			// records the access's line, unless the access was bare and
			// so filled no last-translation cache.
			next = segClean
			rec := addr >> c.l1LineBits
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
				if pa, ok = c.segMemWalk(tc, e.isLoad, addr, e.w64, e.lastVA, e.segEnd); !ok {
					return segStop
				}
				next = segDirty
				if root == 0 {
					rec = noLine
				}
			}
			if c.L1.TouchFast(pa, ref) {
				cpu.Cycles += c.l1Hit
			} else {
				cpu.Cycles += c.cachedAccessRef(pa, ref)
			}
			*line = rec
		}
		if e.isLoad {
			var val uint64
			if e.width == 8 {
				val = c.loadWin.Load64(pa)
			} else {
				val = c.loadWin.LoadFast(pa, e.width)
			}
			if e.signed {
				val = isa.SignExtend(val, e.width)
			}
			if u.rd != isa.RegZero {
				cpu.Regs[u.rd&regIdxMask] = val
			}
			return next
		}
		// Store: the fused window store runs the copy-on-write backstop
		// (Core.Store's), the code-page check and the write in one call.
		// The code-page verdict decides the guard: a store into a marked
		// code page bumped icGen and must force the next guard, while a
		// plain data-page store (through a still-live translation)
		// provably left the guard word unmoved.
		val := cpu.Regs[u.b&regIdxMask]
		var cow, hitCode bool
		if e.width == 8 {
			cow, hitCode = c.storeWin.Store64(pa, val)
		} else {
			cow, hitCode = c.storeWin.StoreFast(pa, e.width, val)
		}
		if cow {
			c.segCOWTrap(e.lastVA, addr, e.segEnd)
			return segStop
		}
		if hitCode {
			return segDirty
		}
		return next
	}

	// Terminal, by the same rule. A branch picks between its burned-in
	// target and the fall-through; JAL and JALR write their link unless
	// rd is x0, and JALR reads rs1 first, so rd == rs1 jumps to the old
	// value. A block without a terminal leaves PC to execBlock. The pass
	// stays steady if it was.
	next := segClean
	if st == segSteady {
		next = segSteady
	}
	x, y := cpu.Regs[u.a&regIdxMask], cpu.Regs[u.b&regIdxMask]
	var taken bool
	switch u.op {
	case isa.OpBEQ:
		taken = x == y
	case isa.OpBNE:
		taken = x != y
	case isa.OpBLT:
		taken = int64(x) < int64(y)
	case isa.OpBGE:
		taken = int64(x) >= int64(y)
	case isa.OpBLTU:
		taken = x < y
	case isa.OpBGEU:
		taken = x >= y
	case isa.OpJAL:
		if u.rd != isa.RegZero {
			cpu.Regs[u.rd&regIdxMask] = e.lastVA + isa.InstrSize
		}
		taken = true
	case isa.OpJALR:
		if u.rd != isa.RegZero {
			cpu.Regs[u.rd&regIdxMask] = e.lastVA + isa.InstrSize
		}
		cpu.PC = x + u.imm
		return next
	default:
		return next
	}
	if taken {
		cpu.PC = u.imm
	} else {
		cpu.PC = e.lastVA + isa.InstrSize
	}
	return next
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
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
		vas     [blockCap]uint64
		words   [blockCap]uint64
		ins     [blockCap]isa.Instr
		n       int
		hasTerm bool
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
		if isa.IsControl(in.Op) {
			n++
			hasTerm = true
			break
		}
		if !isa.IsALU(in.Op) && !isa.IsLoad(in.Op) && !isa.IsStore(in.Op) {
			break // system op, HALT, RDCYCLE or illegal word: never fused
		}
		n++
		va += isa.InstrSize
	}

	idx := (pc >> 3) & (bcEntries - 1)
	if n < blockMinLen {
		// A rejected-block stub is never handed out, so a stale one in
		// the slot is refreshed in place rather than replaced. It keeps
		// the frame and guard it was traced under, so that a remap of
		// its page to other code frees it as it frees a block.
		stub := block{entryVA: pc, paPage: paPage, icGen: icGen, tgMode: tg, root: root}
		if old := c.blocks[idx]; old != nil && old.n == 0 {
			*old = stub
		} else {
			c.blocks[idx] = &stub
		}
		c.bstats.Rejected++
		return nil
	}

	b := &block{
		entryVA: pc, fallPC: va, paPage: paPage,
		icGen: icGen, tgMode: tg, root: root,
		n: n, hasTerm: hasTerm,
	}
	// Each distinct L1 line of the trace gets one ref, in first-fetch
	// order; a memory op ends its segment, and so does the last op. The
	// block's register ops share one exact-size array, and its words,
	// VAs and code line addresses another.
	var (
		lines  [blockCap]uint64
		lineOf [blockCap]int
		nl     int
		nsegs  int
		nops   int
	)
	lineBits := c.l1LineBits
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
		if fusesOp(ins[i]) {
			nops++
		}
	}
	buf := make([]uint64, 2*n+nl)
	b.words, b.vas, b.lpas = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	copy(b.words, words[:n])
	copy(b.vas, vas[:n])
	for j, line := range lines[:nl] {
		b.lpas[j] = paPage | line<<lineBits
	}
	b.lrefs = make([]cache.LineRef, nl)
	b.segs = make([]segEnv, 0, nsegs)
	ops := make([]uop, 0, nops)

	var runs [blockCap]fetchRun
	var seg segSpec
	r0, nr, o0 := 0, 0, 0 // the open segment's runs[r0:nr] and ops[o0:]
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
		// A memory op always ends its segment: its data access must stay
		// ordered between the fetch before it and the fetch after it, so
		// the next fetch batch starts a new segment. A followed plain
		// jump, a NOP or an ALU op writing x0 charges only its fetch and
		// base cycles.
		isMem := isa.IsLoad(in.Op) || isa.IsStore(in.Op)
		switch {
		case isMem || i == n-1 && hasTerm:
			seg.last, seg.lastVA = in, va
		case fusesOp(in):
			ops = append(ops, newUop(in, va))
		}
		if isMem || i == n-1 {
			seg.fetch, seg.ops = runs[r0:nr], ops[o0:]
			b.segs = append(b.segs, c.buildSeg(b, seg))
			seg = segSpec{base: seg.base + seg.n}
			r0, o0 = nr, len(ops)
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

// revalidateBlock verdicts.
const (
	blockStale = iota // not usable now, but may be again: keep it
	blockLive         // revived: its guard is refreshed
	blockDead         // its frame or words changed: drop it
)

// revalidateBlock revives a block whose guard went stale without its
// substance changing — the common case after a domain switch or TLB
// shootdown, where recompiling every block would put a compile on the
// enclave enter/exit path. A rejected site's stub (no words) is checked
// the same way, for its frame. The block is revived iff every VA walks
// from the same non-zero root (adopted as the block's root), the TLB
// holds the entry page with fetch permission for the current mode and
// the block's frame, and — only if a code write moved icGen since the
// block was validated — the code words compare equal. A reference
// fetch of any of the block's VAs would then be a TLB hit on that
// frame, which is what the block's batched accounting charges. Like
// compilation, revalidation is architecturally invisible: the TLB
// probe counts no statistic.
//
// A block that fails only because its page is not in the TLB yet (the
// first arrival after a flush), or because the mode or walk root
// cannot use it now, stays in its slot for the next arrival. A block
// whose page now maps another frame, or whose words changed, is dead.
func (c *Core) revalidateBlock(b *block) int {
	root, _ := c.walkRoot(b.entryVA)
	if root == 0 {
		return blockStale
	}
	for _, va := range b.vas {
		if r, _ := c.walkRoot(va); r != root {
			return blockStale
		}
	}
	e, ok := c.TLB.Probe((b.entryVA & pt.VAMask) >> mem.PageBits)
	if !ok || !tlbPermOK(e.Perms, pt.Fetch, c.CPU.Mode) {
		return blockStale
	}
	if e.PPN<<mem.PageBits != b.paPage {
		return blockDead // remapped: only a recompile can retarget the site
	}
	icGen := c.icGen.Load()
	if b.icGen != icGen {
		c.machine.markCodePage(b.paPage) // re-mark before reading (snoop race)
		for i, w := range b.words {
			if c.fetchWin.LoadFast(b.paPage|(b.vas[i]&uint64(mem.PageMask)), 8) != w {
				return blockDead
			}
		}
	}
	b.icGen, b.tgMode, b.root = icGen, tgMode(c.TLB.Gen(), c.CPU.Mode), root
	if b.n > 0 {
		c.bstats.Revalidations++
	}
	return blockLive
}
