package machine

import (
	"cmp"
	"math"
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
// compiled into blocks that execute the whole run with the scaffolding
// hoisted out of the instructions. Like the rest of the fast path, the
// tier is purely a host-side accelerator: modeled cycles, TLB and cache
// statistics, trap causes and deterministic replay are bit-identical to
// the reference interpreter, which the equivalence and differential-
// fuzz tests enforce.
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
// each fetch run its segment's first VA, the resume PC of a guard bail.
//
// The block is divided into segments: a segment is a maximal run whose
// only observable effects are register updates, ended by a memory
// access (which must stay ordered against the fetches around it) or by
// the terminal. A block compiles to one flat op list, which execBlock
// walks in one loop, a chained pass after another: each segment's
// register ops, then its memory op or the terminal, each one case of
// the same switch. A segment's fetches are charged where it starts — at
// the pass start for the first segment, else right after the memory
// op before it, since nothing between the two touches the caches —
// as its fetch runs (its consecutive fetches from one L1 line each).
// Starting a segment (enter)
//
//   - re-checks the guard word (code-write generation + TLB generation
//     + privilege mode) when the op before it left the guard dirty: any
//     code write, translation removal or domain switch bails back to
//     the interpreter at an exact instruction boundary;
//   - charges each fetch run at once: TLB.Hits advances by the run
//     length (each fetch is a guaranteed TLB hit while the guard holds),
//     and the L1 touches collapse into one TouchFastN, bit-exact to the
//     per-fetch sequence because nothing else touches the cache between
//     them;
//   - adds the batched base cycle cost of the segment's instructions
//     (exact: fused ALU ops cannot trap, so entering the segment implies
//     they all retire).
//
// A memory op is the exact Core.Load/Store fast-path sequence. A steady
// pass (see execBlock) starts no segment and charges none of its data
// hits as it goes; what it owes is paid when a chain of steady passes
// breaks.
//
// Batches. A block is strided (see strided) when one pass is a copy
// step: one load, then one store of what it loaded, where both
// addresses and the terminal's outcome follow from the registers at the
// pass start by adding a constant per pass. A steady pass of a strided
// block owes nothing the op list computes: its accesses hit the lines
// of its class's last checked access, so it charges no cache until the
// chain settles, and its register updates only feed those accesses and
// the registers it leaves. So from a steady pass start, execBlock hands
// the passes that need nothing else to batch, which makes only their
// loads and stores, in program order and word by word through the
// windows, then sets the registers the last one leaves and adds the
// passes to the chain's debt. A batch ends before the first pass that
// would cross a line, leave the chain, or store to a page the window
// would refuse or flag: each is found from the pass's affine addresses
// and branch operands before any of its accesses, and the op loop runs
// that pass from its start, exactly as before. The batch polls at the
// pass ends passEnd would, so a pending event or a failed guard stops
// it where it stops the chain, and the accounting (cycles, TLB and L1
// statistics and every way's stamp) is the chain's own settle.
//
// Every fused instruction is one op: opcode, register fields reduced
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

// opFetch is a fetch run's opcode (block.runs). It lies past the ISA's
// last opcode, so it names no instruction.
const opFetch = isa.OpRDCYCLE + 1

// How the ops after the current one may run.
const (
	segDirty  = iota // the next segment's start must re-check the guard
	segClean         // the guard word provably did not move
	segSteady        // segClean, and the pass is still steady (see execBlock)
)

// BlockStats counts the block engine's activity on one core; purely
// observational (host-side), exposed for cmd/experiments and tests.
type BlockStats struct {
	Compiled      uint64 // blocks built (including recompiles)
	Rejected      uint64 // hot sites refused (too short / unfusible head)
	Executions    uint64 // completed straight-line passes
	Loops         uint64 // back-to-back re-entries without leaving the engine
	Steady        uint64 // chained passes that ran steady from start to end (through fills that spared every ref)
	Batched       uint64 // steady passes of strided blocks run inside a batch (see batch)
	Instrs        uint64 // instructions retired inside blocks
	GuardBails    uint64 // mid-block guard misses (fell back to interpreter)
	Revalidations uint64 // stale blocks revived without recompiling
	Invalidations uint64 // stale blocks dropped: frame or words changed, the site re-heats
	Decodes       uint64 // decode-cache refills that ran isa.Decode
}

// BlockStats returns the core's block-engine counters.
func (c *Core) BlockStats() BlockStats { return c.bstats }

// blockRun is the state of one block execution, which execBlock shares
// with the helpers its passes call. st says how the next op may run.
// While passes run steady, what they owe is paid only when the chain of
// steady passes breaks: owed completed passes are unpaid, the first of
// them from its point from on, and the current pass from its start; with
// none owed, the current pass is unpaid from from on. proved is the L1
// change count at which every ref was last confirmed. ldLine and stLine are the VA lines (va >> L1 line
// bits) of the execution's last load and store through the checked
// path, the lines a steady pass tests its data accesses against; noLine
// matches no address.
type blockRun struct {
	st     int
	from   debt
	owed   int
	proved uint64
	ldLine uint64
	stLine uint64

	done      int  // instructions retired by completed passes
	passes    int  // completed passes
	steady    int  // completed passes that ran steady
	budget    int  // the step budget the passes must fit in
	sincePoll int  // passes since the last poll
	steadyOK  bool // the core's evrange splits no L1 line
}

const noLine = ^uint64(0)

// block is one compiled superinstruction chain.
type block struct {
	entryVA uint64
	fallPC  uint64            // PC after a pass with no terminal
	paPage  uint64            // physical page holding the block's code
	icGen   uint64            // guard: core's decode-cache generation at (re)validation
	tgMode  uint64            // guard: TLB generation + privilege mode pack
	root    uint64            // page-table root every VA in the block walks from
	n       int               // total instructions; 0 marks a negative-cache entry
	stride  int               // chained passes between polls: blockCap/n
	words   []uint64          // original instruction words, for revalidation
	vas     []uint64          // each instruction's VA, in execution order
	ops     []bop             // one pass's ops, in execution order
	runs    []bop             // the fetch runs, segment by segment
	head    uint8             // the first segment's fetch runs: runs[:head]
	hasTerm bool              // ends in control flow (else falls through to fallPC); beside head, so a block packs in 208 bytes
	end     debt              // what a whole steady pass owes
	held    []cache.HeldTouch // the refs of every debt, held[d.lo:d.hi] for debt d
	strided *strided          // a pass as a batch runs it, if the block is strided
}

// debt is what a steady pass owes at one point of the pass, counted from
// its start and fixed at compile time: every fetch and data access so
// far was a hit through a held ref, so the pass owes their cycles, their
// L1 touches (each also a TLB hit), and for each ref it touched the
// stamp of its last touch, which block.held[lo:hi] lists in ascending
// order.
type debt struct {
	cycles  uint32
	touches uint16
	lo, hi  uint16
}

// bop is one op of a block's list — a register op, a memory op or the
// terminal — or one of its fetch runs, with every constant its
// execution needs resolved at compile time. Register fields are reduced mod 32 and the immediate
// pre-extended: for an immediate shift the masked amount, for a branch
// or JAL the absolute taken target.
type bop struct {
	imm       uint64        // the immediate or taken target; a fetch run's first word's PA
	va        uint64        // a memory op's or terminal's VA; a fetch run's segment's first VA
	ref       cache.LineRef // fetch run: the L1 ref of its line
	op        isa.Op        // the opcode; a fetch run's is opFetch
	rd, a, b  uint8
	width     uint8  // memory op: access width in bytes
	signed    bool   // load: sign-extends
	n         uint8  // fetch run: the fetches it charges
	retired   uint8  // memory op: instructions a stop here retires, itself included
	lo, hi    uint8  // memory op: the next segment's fetch runs, block.runs[lo:hi]
	static    uint32 // fetch run: on its segment's first run, the segment's batched base cycle cost
	pre, post debt   // memory op: what a steady pass owes before and after its data access
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
// a line since every line ref the block uses — its fetch runs' refs and
// the core's load and store refs — was last confirmed. A pass whose
// change count (cache.Changes) did not move from start to end confirmed
// every one of them at that count, each fetch run and data access
// through a hold check or a scan; a pass that moved it is followed by
// confirmRefs, which checks each ref's hold at the new count. A steady
// pass tests a data access only for the VA line of its class's last
// checked access: the same line means the same last-translation cache
// hit and the same L1 line. It charges nothing as it goes: each of its
// fetches and data accesses is a hit through a held ref, so a pass owes
// debts fixed at compile time (owe), and a chain of steady passes is
// paid in one step (settle) only when it breaks.
//
// The first access that fails the test crosses a line. The chain is
// first paid up to that access, in order, and the access takes the
// checked path (blockData); if it hit the L1, or its fill spared every
// ref, the pass stays steady and owes only for the ops after it, and
// otherwise they run checked. Every other stop inside a steady pass — a
// misaligned access, a copy-on-write refusal, a store into a marked code
// page — first pays what it retired as well, since a fill picks its
// victim by the stamps the payment leaves, and so does every exit. A
// steady pass of a strided block may instead run in a batch (batch),
// with the passes after it that stay on both lines.
func (c *Core) execBlock(b *block, budget int) (int, *isa.Trap) {
	// blockFor validated the guard word on entry, so the first pass
	// starts clean; every ref holds while the change count stays here.
	// The VA-line test names one walk root only while evrange does not
	// split a line; a monitor only programs page-aligned ranges. Guard
	// re-checks and event polls are batched across chained passes up to
	// the block cap, so a short loop body pays the atomic loads at the
	// same ≤blockCap-instruction interval a maximal block would.
	run := blockRun{
		st: segClean, proved: c.L1.Changes(), ldLine: noLine, stLine: noLine,
		steadyOK: c.EvMask&(1<<c.l1LineBits-1) == 0, budget: budget,
	}
	r, ops := &c.CPU.Regs, b.ops
	for {
		if run.st == segSteady && b.strided != nil && !c.batch(b, &run) {
			return c.blockEnd(run.done, run.passes, run.passes-1, run.steady), nil
		}
		if run.st != segSteady && !c.enter(b, &run, b.runs[:b.head]) {
			return c.blockEnd(run.done, run.passes, run.passes, run.steady), nil
		}
		for i := range ops {
			u := &ops[i]
			switch u.op {
			// Register ops: each case is ExecDecoded's update for its op,
			// on the register file directly (see the file comment for why
			// that is exact for x0).
			case isa.OpADD:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] + r[u.b&regIdxMask]
			case isa.OpSUB:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] - r[u.b&regIdxMask]
			case isa.OpAND:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] & r[u.b&regIdxMask]
			case isa.OpOR:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] | r[u.b&regIdxMask]
			case isa.OpXOR:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] ^ r[u.b&regIdxMask]
			case isa.OpSLL:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] << (r[u.b&regIdxMask] & 63)
			case isa.OpSRL:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] >> (r[u.b&regIdxMask] & 63)
			case isa.OpSRA:
				r[u.rd&regIdxMask] = uint64(int64(r[u.a&regIdxMask]) >> (r[u.b&regIdxMask] & 63))
			case isa.OpSLT:
				r[u.rd&regIdxMask] = b2u(int64(r[u.a&regIdxMask]) < int64(r[u.b&regIdxMask]))
			case isa.OpSLTU:
				r[u.rd&regIdxMask] = b2u(r[u.a&regIdxMask] < r[u.b&regIdxMask])
			case isa.OpMUL:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] * r[u.b&regIdxMask]
			case isa.OpDIVU:
				v := ^uint64(0) // RISC-V semantics: no trap
				if y := r[u.b&regIdxMask]; y != 0 {
					v = r[u.a&regIdxMask] / y
				}
				r[u.rd&regIdxMask] = v
			case isa.OpREMU:
				v := r[u.a&regIdxMask]
				if y := r[u.b&regIdxMask]; y != 0 {
					v %= y
				}
				r[u.rd&regIdxMask] = v
			case isa.OpADDI:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] + u.imm
			case isa.OpANDI:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] & u.imm
			case isa.OpORI:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] | u.imm
			case isa.OpXORI:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] ^ u.imm
			case isa.OpSLLI:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] << u.imm
			case isa.OpSRLI:
				r[u.rd&regIdxMask] = r[u.a&regIdxMask] >> u.imm
			case isa.OpSRAI:
				r[u.rd&regIdxMask] = uint64(int64(r[u.a&regIdxMask]) >> u.imm)
			case isa.OpSLTI:
				r[u.rd&regIdxMask] = b2u(int64(r[u.a&regIdxMask]) < int64(u.imm))
			case isa.OpSLTIU:
				r[u.rd&regIdxMask] = b2u(r[u.a&regIdxMask] < u.imm)
			case isa.OpLI:
				r[u.rd&regIdxMask] = u.imm

			// Memory ops: the exact Core.Load/Store fast-path sequence
			// plus ExecDecoded's register update, minus everything the
			// fetch runs hoist (fetch, base cycles, PC). A steady access
			// on its class's last line is a hit in its last-translation
			// cache and through its ref, which the pass owes. A pass that
			// is not steady then starts the next segment.
			case isa.OpLB, isa.OpLBU, isa.OpLH, isa.OpLHU, isa.OpLW, isa.OpLWU, isa.OpLD:
				addr := r[u.a&regIdxMask] + u.imm
				if addr&(uint64(u.width)-1) != 0 {
					tr := c.blockTrap(b, &run, u, &u.pre, isa.CauseMisalignedLoad, addr)
					return c.blockEnd(run.done+int(u.retired), run.passes, run.passes, run.steady), tr
				}
				var pa uint64
				if run.st == segSteady && addr>>c.l1LineBits == run.ldLine {
					pa = c.loadTC.paPage | addr&uint64(mem.PageMask)
				} else {
					var tr *isa.Trap
					if pa, tr = c.blockData(b, &run, u, addr, true); tr != nil {
						return c.blockEnd(run.done+int(u.retired), run.passes, run.passes, run.steady), tr
					}
				}
				var val uint64
				if u.width == 8 {
					val = c.loadWin.Load64(pa)
				} else {
					val = c.loadWin.LoadFast(pa, int(u.width))
				}
				if u.signed {
					val = isa.SignExtend(val, int(u.width))
				}
				if u.rd != isa.RegZero {
					r[u.rd&regIdxMask] = val
				}
				if run.st != segSteady && !c.enter(b, &run, b.runs[u.lo:u.hi]) {
					return c.blockEnd(run.done+int(u.retired), run.passes, run.passes, run.steady), nil
				}
			case isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD:
				addr := r[u.a&regIdxMask] + u.imm
				if addr&(uint64(u.width)-1) != 0 {
					tr := c.blockTrap(b, &run, u, &u.pre, isa.CauseMisalignedStore, addr)
					return c.blockEnd(run.done+int(u.retired), run.passes, run.passes, run.steady), tr
				}
				var pa uint64
				if run.st == segSteady && addr>>c.l1LineBits == run.stLine {
					pa = c.storeTC.paPage | addr&uint64(mem.PageMask)
				} else {
					var tr *isa.Trap
					if pa, tr = c.blockData(b, &run, u, addr, false); tr != nil {
						return c.blockEnd(run.done+int(u.retired), run.passes, run.passes, run.steady), tr
					}
				}
				// The fused window store runs the copy-on-write backstop
				// (Core.Store's), the code-page check and the write in one
				// call. A store into a marked code page bumped icGen and
				// must force the next guard, while a plain data-page store
				// (through a still-live translation) provably left the
				// guard word unmoved.
				val := r[u.b&regIdxMask]
				var cow, hitCode bool
				if u.width == 8 {
					cow, hitCode = c.storeWin.Store64(pa, val)
				} else {
					cow, hitCode = c.storeWin.StoreFast(pa, int(u.width), val)
				}
				if cow {
					tr := c.blockTrap(b, &run, u, &u.post, isa.CauseStoreAccess, addr)
					return c.blockEnd(run.done+int(u.retired), run.passes, run.passes, run.steady), tr
				}
				if hitCode {
					if run.st == segSteady {
						c.settle(b, &run, &u.post)
					}
					run.st = segDirty
				}
				if run.st != segSteady && !c.enter(b, &run, b.runs[u.lo:u.hi]) {
					return c.blockEnd(run.done+int(u.retired), run.passes, run.passes, run.steady), nil
				}

			// The terminal. A branch picks between its burned-in target
			// and the fall-through; JAL and JALR write their link unless
			// rd is x0, and JALR reads rs1 first, so rd == rs1 jumps to
			// the old value. A block without a terminal leaves PC to the
			// pass end.
			case isa.OpBEQ:
				c.CPU.PC = u.next(r[u.a&regIdxMask] == r[u.b&regIdxMask])
			case isa.OpBNE:
				c.CPU.PC = u.next(r[u.a&regIdxMask] != r[u.b&regIdxMask])
			case isa.OpBLT:
				c.CPU.PC = u.next(int64(r[u.a&regIdxMask]) < int64(r[u.b&regIdxMask]))
			case isa.OpBGE:
				c.CPU.PC = u.next(int64(r[u.a&regIdxMask]) >= int64(r[u.b&regIdxMask]))
			case isa.OpBLTU:
				c.CPU.PC = u.next(r[u.a&regIdxMask] < r[u.b&regIdxMask])
			case isa.OpBGEU:
				c.CPU.PC = u.next(r[u.a&regIdxMask] >= r[u.b&regIdxMask])
			case isa.OpJAL:
				if u.rd != isa.RegZero {
					r[u.rd&regIdxMask] = u.va + isa.InstrSize
				}
				c.CPU.PC = u.imm
			case isa.OpJALR:
				target := r[u.a&regIdxMask] + u.imm
				if u.rd != isa.RegZero {
					r[u.rd&regIdxMask] = u.va + isa.InstrSize
				}
				c.CPU.PC = target
			}
		}
		if !c.passEnd(b, &run) {
			return c.blockEnd(run.done, run.passes, run.passes-1, run.steady), nil
		}
	}
}

// passEnd closes a completed pass of b and reports whether the next
// pass chains. The next pass inherits the last op's verdict — a store
// into code already forced dirty, and clean ops provably left the guard
// word unmoved — and runs steady if every ref is proved to hold. A
// steady pass joins the unpaid chain, which is paid when the next pass
// will not run steady (only another hart can fail the guard of a steady
// chain) or does not run.
func (c *Core) passEnd(b *block, run *blockRun) bool {
	if run.st == segSteady {
		run.owed++
		run.steady++
	} else {
		run.from = debt{}
	}
	run.passes++
	run.done += b.n
	if !b.hasTerm {
		c.CPU.PC = b.fallPC
	}
	chain := c.CPU.PC == b.entryVA && run.done+b.n <= run.budget
	if chain {
		if now := c.L1.Changes(); run.st != segDirty && run.steadyOK && (now == run.proved || c.confirmRefs(b, run)) {
			run.proved, run.st = now, segSteady
		} else if run.st == segSteady {
			run.st = segClean
		}
		if run.sincePoll++; run.sincePoll >= b.stride {
			run.sincePoll = 0
			// Poll boundary: stop for a pending event, else re-check the
			// guard, so a cross-hart code write is seen within blockCap
			// retired instructions even by an all-clean or steady loop. A
			// failed check leaves it to the next pass's start, which
			// bails.
			if c.pending.Load() != 0 {
				chain = false
			} else if run.st != segSteady || !c.guardHolds(b) {
				run.st = segDirty
			}
		}
	}
	if run.owed > 0 && (!chain || run.st != segSteady) {
		c.settle(b, run, nil)
	}
	return chain
}

// batch runs chained passes of the strided block b from a steady pass
// start as one batch, and reports whether the pass after them chains.
// It runs each pass, up to the first that would cross a line (a load
// off run.ldLine's or a store off run.stLine's), leave the chain (its
// terminal does not return to the entry, or the budget does not cover
// it) or store to a page the window would refuse or flag (Writable).
// That pass, which the op loop then runs from its start, is found
// before any of its accesses, since an address or branch outcome is
// affine in the pass and reads no memory. A batched pass is a steady
// pass that makes only its load and its store, in that order, through
// the windows, each with its window's page check; it owes what the op
// loop's would and joins the chain's debt. Its store falls on
// run.stLine, so one check of that page's copy-on-write and code bits
// before the pass covers it: a freeze or mark another hart makes after
// it is ordered after the pass, as one made after Store64's own check
// is ordered after its write. Poll boundaries fall at the same pass
// ends as passEnd's, and a pending event or a failed guard ends the
// batch there, as it ends the chain or the pass there. The registers
// the passes write are set at the end, to what the last one leaves.
func (c *Core) batch(b *block, run *blockRun) bool {
	s, r, lb := b.strided, &c.CPU.Regs, c.l1LineBits
	ld, st := s.ld.at(r), s.st.at(r) // the current pass's load and store VAs
	if ld&(uint64(s.ldWidth)-1) != 0 || ld>>lb != run.ldLine ||
		st&(uint64(s.stWidth)-1) != 0 || st>>lb != run.stLine {
		return true
	}
	k := min(linePasses(ld, s.ld.step, lb), linePasses(st, s.st.step, lb))
	x, y := s.x.at(r), s.y.at(r)
	const off = uint64(mem.PageMask)
	left := run.budget - run.done - b.n // steps the budget covers after this pass
	since := run.sincePoll
	n, chain := 0, true
	var v uint64 // the value the last pass copied
	for n < k {
		if t := s.term; t != nil && t.next(isa.BranchTaken(t.op, x, y)) != b.entryVA {
			break
		}
		if !c.storeWin.Writable(c.storeTC.paPage) {
			break
		}
		// The pass's load, then its store of what it read, each reading
		// or writing its window's page without a call while the window
		// holds it.
		la, sa := c.loadTC.paPage|ld&off, c.storeTC.paPage|st&off
		p := c.loadWin.Hit(la)
		if p == nil {
			p = c.loadWin.Page(la)
		}
		v = mem.LoadFrom(p, la, int(s.ldWidth))
		if s.signed {
			v = isa.SignExtend(v, int(s.ldWidth))
		}
		if p = c.storeWin.Hit(sa); p == nil {
			p = c.storeWin.Page(sa)
		}
		mem.StoreTo(p, sa, int(s.stWidth), v)
		ld, st = ld+s.ld.step, st+s.st.step
		x, y = x+s.x.step, y+s.y.step
		n++
		if left < b.n {
			chain = false
			break
		}
		left -= b.n
		if since++; since >= b.stride {
			since = 0
			if c.pending.Load() != 0 {
				chain = false
				break
			}
			if !c.guardHolds(b) {
				run.st = segDirty
				break
			}
		}
	}
	run.sincePoll = since
	if n == 0 {
		return true
	}
	// Temporaries first: their values read the induction registers as
	// the batch found them.
	for i := range s.regs[:s.nregs] {
		g := &s.regs[i]
		if g.loaded {
			r[g.r&regIdxMask] = v
		} else {
			r[g.r&regIdxMask] = g.at(r) + uint64(n-1)*g.step
		}
	}
	run.owed += n
	run.steady += n
	run.passes += n
	run.done += n * b.n
	c.bstats.Batched += uint64(n)
	if !chain || run.st != segSteady {
		c.settle(b, run, nil)
	}
	return chain
}

// linePasses returns how many passes, from the one at va on, an access
// that moves by step each pass keeps to va's line.
func linePasses(va, step uint64, lb uint) int {
	line := va >> lb
	var left uint64 // the bytes the access may move before it leaves the line
	switch {
	case int64(step) > 0:
		left = (line+1)<<lb - 1 - va
	case int64(step) < 0:
		left, step = va-line<<lb, -step
	default:
		return math.MaxInt
	}
	return int(left/step) + 1
}

// enter starts a segment of a pass that is not steady: it re-checks the
// guard if the op before left it dirty, then charges the segment's
// fetch runs (runs). Each fetch is a guaranteed TLB hit under the
// guard; a dead ref falls back to the exact per-fetch sequence. A guard
// miss bails before the segment's first instruction — after a followed
// jump it is not entry + offset — and enter reports false. A memory op
// that ends the block starts no segment.
func (c *Core) enter(b *block, run *blockRun, runs []bop) bool {
	if len(runs) == 0 {
		return true
	}
	if run.st == segDirty {
		if !c.guardHolds(b) {
			c.CPU.PC = runs[0].va
			c.bstats.GuardBails++
			return false
		}
		run.st = segClean
	}
	for i := range runs {
		u := &runs[i]
		n := uint64(u.n)
		c.TLB.Hits += n
		cyc := uint64(u.static)
		if c.L1.TouchFastN(u.imm, &u.ref, n) {
			cyc += n * c.l1Hit
		} else {
			cyc += c.fetchChargeSlow(u.imm, &u.ref, n)
		}
		c.CPU.Cycles += cyc
	}
	return true
}

// blockEnd adds one execution to the block counters and returns the
// instructions it retired: passes completed, of which steady ran steady,
// and loops chained re-entries (a pass stopped inside was one too).
func (c *Core) blockEnd(retired, passes, loops, steady int) int {
	c.bstats.Instrs += uint64(retired)
	c.bstats.Executions += uint64(passes)
	c.bstats.Loops += uint64(loops)
	c.bstats.Steady += uint64(steady)
	return retired
}

// settle pays what the chain of steady passes owes: the completed
// passes, in one step whatever their number, and then, unless to is
// nil, the current pass up to point to, which run.from becomes. Every
// pass touches every ref of b.end, so only the last completed pass's
// stamps survive.
func (c *Core) settle(b *block, run *blockRun, to *debt) {
	if k := uint64(run.owed); k > 0 {
		e := uint64(b.end.touches)
		from := uint64(run.from.touches)
		c.L1.TouchHeldRun(from, k*e, (k-1)*e, b.held[b.end.lo:b.end.hi])
		c.TLB.Hits += k*e - from
		c.CPU.Cycles += k*uint64(b.end.cycles) - uint64(run.from.cycles)
		run.from, run.owed = debt{}, 0
	}
	if to != nil {
		c.L1.TouchHeldRun(uint64(run.from.touches), uint64(to.touches), 0, b.held[to.lo:to.hi])
		c.TLB.Hits += uint64(to.touches - run.from.touches)
		c.CPU.Cycles += uint64(to.cycles - run.from.cycles)
		run.from = *to
	}
}

// blockData is memory op u's checked data access, a load or a store: through its class's
// last-translation cache (or a walk) and L1 ref, recording the access's
// VA line unless the access was bare and so filled no last-translation
// cache. It returns the PA, or the trap of a failed translation, with PC
// on the op. A steady pass hands over here: it first settles what it
// owes before the access, and stays steady if the access walked nothing
// and hit the L1 or its fill spared every ref; proved then moves to the
// new change count, and the pass owes from after the access. A walk
// leaves the guard dirty.
func (c *Core) blockData(b *block, run *blockRun, u *bop, addr uint64, isLoad bool) (uint64, *isa.Trap) {
	tc, ref, line := &c.storeTC, &c.storeRef, &run.stLine
	if isLoad {
		tc, ref, line = &c.loadTC, &c.loadRef, &run.ldLine
	}
	wasSteady := run.st == segSteady
	if wasSteady {
		c.settle(b, run, &u.pre)
	}
	run.st = segClean
	rec := addr >> c.l1LineBits
	var pa uint64
	root, _ := c.walkRoot(addr)
	if root != 0 && tc.gen == c.TLB.Gen() && tc.vpn == (addr&pt.VAMask)>>mem.PageBits &&
		tc.root == root && tc.mode == c.CPU.Mode {
		// Last-translation cache hit: same statistic update as
		// translateFast's short-circuit, and provably no TLB or
		// decode-cache mutation.
		c.TLB.Hits++
		pa = tc.paPage | addr&uint64(mem.PageMask)
	} else {
		acc := pt.Store
		if isLoad {
			acc = pt.Load
		}
		var walkCyc uint64
		var fault *isa.MemFault
		pa, walkCyc, fault = c.translateFast(tc, addr, uint64(u.width), acc)
		c.CPU.Cycles += walkCyc
		if fault != nil {
			c.CPU.PC = u.va
			cause := fault.StoreCause()
			if isLoad {
				cause = fault.LoadCause()
			}
			return 0, c.CPU.Trapped(cause, u.va, fault.Addr)
		}
		run.st = segDirty
		if root == 0 {
			rec = noLine
		}
	}
	if c.L1.TouchFast(pa, ref) {
		c.CPU.Cycles += c.l1Hit
	} else {
		c.CPU.Cycles += c.cachedAccessRef(pa, ref)
	}
	*line = rec
	if wasSteady && run.st == segClean {
		if now := c.L1.Changes(); now == run.proved || c.spares(b, ref) {
			run.proved, run.st, run.from = now, segSteady, u.post
		}
	}
	return pa, nil
}

// spares reports whether the fill a data access just made through ref,
// which now names the victim way, left every other ref of b's passes
// holding: the victim is none of the fetch runs' ways and not the other
// data class's.
func (c *Core) spares(b *block, ref *cache.LineRef) bool {
	for _, h := range b.held[b.end.lo:b.end.hi] {
		if h.Ref != ref && ref.SameWay(h.Ref) {
			return false
		}
	}
	return true
}

// blockTrap stops a pass at memory op u with cause and returns the
// trap. Like the interpreter, the op counts as retired and leaves PC on
// it. A steady pass first settles what it owes at to: before u's data
// access, or after it when the trap came after the access.
func (c *Core) blockTrap(b *block, run *blockRun, u *bop, to *debt, cause isa.Cause, addr uint64) *isa.Trap {
	if run.st == segSteady {
		c.settle(b, run, to)
	}
	c.CPU.PC = u.va
	return c.CPU.Trapped(cause, u.va, addr)
}

// confirmRefs checks, after a pass that moved L1 lines, the hold of
// every ref a steady pass would use. It reports whether each of b's
// fetch runs' refs still holds its line, and forgets a data class's last
// line whose ref no longer holds it, so that class's next access takes
// the checked path.
func (c *Core) confirmRefs(b *block, run *blockRun) bool {
	for i := range b.runs {
		if u := &b.runs[i]; !c.L1.Holds(u.imm, &u.ref) {
			return false
		}
	}
	lb, off := c.l1LineBits, uint64(mem.PageMask)
	if l := run.ldLine; l != noLine && !c.L1.Holds(c.loadTC.paPage|l<<lb&off, &c.loadRef) {
		run.ldLine = noLine
	}
	if l := run.stLine; l != noLine && !c.L1.Holds(c.storeTC.paPage|l<<lb&off, &c.storeRef) {
		run.stLine = noLine
	}
	return true
}

// guardHolds reports whether b's guard word still holds: no code write
// and no translation left the TLB since b was validated, in the same
// privilege mode.
func (c *Core) guardHolds(b *block) bool {
	return b.icGen == c.icGen.Load() && b.tgMode == tgMode(c.TLB.Gen(), c.CPU.Mode)
}

// fetchChargeSlow is the exact per-fetch fallback when a fetch run's
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

// newBop fuses in, the instruction at va, into an op.
func newBop(in isa.Instr, va uint64) bop {
	u := bop{
		imm: uint64(int64(in.Imm)), va: va, op: in.Op,
		rd: in.Rd % isa.NumRegs, a: in.Rs1 % isa.NumRegs, b: in.Rs2 % isa.NumRegs,
	}
	switch op := in.Op; {
	case op == isa.OpSLLI || op == isa.OpSRLI || op == isa.OpSRAI:
		u.imm &= 63
	case isa.IsControl(op) && op != isa.OpJALR:
		u.imm += va
	case isa.IsLoad(op):
		width, signed := isa.LoadSpec(op)
		u.width, u.signed = uint8(width), signed
	case isa.IsStore(op):
		u.width = uint8(isa.StoreSpec(op))
	}
	return u
}

// next is a branch's new PC: its taken target, or the fall-through.
func (u *bop) next(taken bool) uint64 {
	if taken {
		return u.imm
	}
	return u.va + isa.InstrSize
}

// fusesOp reports whether in compiles to a register op: a computational
// instruction with an effect. A NOP, or an ALU op whose destination is
// x0, retires with its fetch and base cycles only.
func fusesOp(in isa.Instr) bool {
	return isa.IsALU(in.Op) && in.Op != isa.OpNOP && in.Rd%isa.NumRegs != isa.RegZero
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

	// The block is built here and copied into its allocation once its
	// shape is known: a strided block shares one with its pass.
	nb := block{
		entryVA: pc, fallPC: va, paPage: paPage,
		icGen: icGen, tgMode: tg, root: root,
		n: n, stride: blockCap / n, hasTerm: hasTerm,
	}
	// The block's words and VAs share one exact-size array.
	buf := make([]uint64, 2*n)
	nb.words, nb.vas = buf[:n:n], buf[n:]
	copy(nb.words, words[:n])
	copy(nb.vas, vas[:n])

	// The op list, segment by segment: a memory op always ends its
	// segment (its data access must stay ordered between the fetch
	// before it and the fetch after it), and so does the last
	// instruction. A segment's ops are its register ops, then its memory
	// op or the terminal; a followed plain jump, a NOP or an ALU op
	// writing x0 charges only its fetch and base cycles. A segment's
	// fetch runs — its consecutive fetches from one L1 line each, with a
	// ref of their own — are charged where it starts: by the pass start
	// for the first segment, else by the memory op before it, since
	// nothing between the two touches the caches. Each instruction adds
	// at most an op and a fetch run, and the block keeps exact-size
	// copies of both, in one array.
	var (
		ops   [blockCap]bop
		runs  [blockCap]bop
		body  [blockCap]bop // the open segment's register ops
		nops  int
		nruns int
		nbody int
		seg   int  // the open segment's first instruction
		prev  = -1 // the memory op before it, if any
	)
	lineOf := func(i int) uint64 { return vas[i] & pageMask >> c.l1LineBits }
	for i := 0; i < n; i++ {
		in := ins[i]
		isMem := isa.IsLoad(in.Op) || isa.IsStore(in.Op)
		last := isMem || i == n-1 && hasTerm
		if !last && fusesOp(in) {
			body[nbody] = newBop(in, vas[i])
			nbody++
		}
		if !isMem && i < n-1 {
			continue
		}
		var static uint64
		for k := seg; k <= i; k++ {
			static += isa.BlockCost(ins[k].Op)
		}
		r0 := nruns
		for k := seg; k <= i; {
			end := k + 1
			for end <= i && lineOf(end) == lineOf(k) {
				end++
			}
			runs[nruns] = bop{
				imm: paPage | vas[k]&pageMask, va: vas[seg], op: opFetch,
				n: uint8(end - k), static: uint32(static),
			}
			nruns++
			static, k = 0, end
		}
		if prev < 0 {
			nb.head = uint8(nruns)
		} else {
			ops[prev].lo, ops[prev].hi = uint8(r0), uint8(nruns)
		}
		nops += copy(ops[nops:], body[:nbody])
		if last {
			ops[nops] = newBop(in, vas[i])
			ops[nops].retired = uint8(i + 1)
			if isMem {
				prev = nops
			}
			nops++
		}
		nbody, seg = 0, i+1
	}
	all := make([]bop, nops+nruns)
	copy(all, ops[:nops])
	copy(all[nops:], runs[:nruns])
	nb.ops, nb.runs = all[:nops:nops], all[nops:]
	c.owe(&nb)
	var b *block
	if pass, ok := strideOf(&nb); ok {
		sb := &stridedBlock{block: nb, pass: pass}
		sb.strided = &sb.pass
		b = &sb.block
	} else {
		b = new(block)
		*b = nb
	}
	c.blocks[idx] = b
	c.bstats.Compiled++
	return b
}

// owe fixes what a steady pass of b owes at each point where it may
// stop or hand over — before and after each memory op's data access —
// and at its end. Every fetch and data access of a steady pass is a hit
// through a held ref, made in op order: each fetch run's through its own
// ref, each load's and store's through the core's ref for its class.
// The fetch runs of one code line all name its way, so a debt lists the
// line once, through its latest run's ref.
func (c *Core) owe(b *block) {
	// A debt's refs are keyed by what they name: a code line by its line
	// address, which never has the top bit set, and a data class by a
	// key that has it.
	const loadKey, storeKey = ^uint64(0), ^uint64(1)
	key := func(u *bop) uint64 {
		switch {
		case u.op == opFetch:
			return u.imm >> c.l1LineBits
		case isa.IsLoad(u.op):
			return loadKey
		}
		return storeKey
	}
	// The debts' ref lists share one exact-size array: each debt lists
	// every ref touched before it.
	// The pass, in execution order: the first segment's fetch runs,
	// then the ops, each memory op followed by the next segment's.
	var (
		pass  [3 * blockCap]*bop
		np    int
		keys  [blockCap + 2]uint64
		nkeys int
		size  int
	)
	for i := range b.runs[:b.head] {
		pass[np] = &b.runs[i]
		np++
	}
	for i := range b.ops {
		u := &b.ops[i]
		pass[np] = u
		np++
		for j := u.lo; j < u.hi; j++ {
			pass[np] = &b.runs[j]
			np++
		}
	}
	for _, u := range pass[:np] {
		isMem := isa.IsLoad(u.op) || isa.IsStore(u.op)
		if isMem {
			size += nkeys
		}
		if k := key(u); (u.op == opFetch || isMem) && !slices.Contains(keys[:nkeys], k) {
			keys[nkeys] = k
			nkeys++
		}
		if isMem {
			size += nkeys
		}
	}
	b.held = make([]cache.HeldTouch, 0, size+nkeys)

	var (
		last            [blockCap + 2]cache.HeldTouch // each key's ref, at its last touch so far
		touches, static uint64
	)
	touch := func(k uint64, ref *cache.LineRef, n uint64) {
		touches += n
		j := slices.Index(keys[:nkeys], k)
		last[j] = cache.HeldTouch{Ref: ref, At: touches}
	}
	owed := func() debt {
		lo := len(b.held)
		for _, h := range last[:nkeys] {
			if h.At > 0 {
				b.held = append(b.held, h)
			}
		}
		slices.SortFunc(b.held[lo:], func(x, y cache.HeldTouch) int { return cmp.Compare(x.At, y.At) })
		return debt{
			cycles: uint32(static + touches*c.l1Hit), touches: uint16(touches),
			lo: uint16(lo), hi: uint16(len(b.held)),
		}
	}
	for _, u := range pass[:np] {
		switch {
		case u.op == opFetch:
			static += uint64(u.static)
			touch(key(u), &u.ref, uint64(u.n))
		case isa.IsLoad(u.op):
			u.pre = owed()
			touch(loadKey, &c.loadRef, 1)
			u.post = owed()
		case isa.IsStore(u.op):
			u.pre = owed()
			touch(storeKey, &c.storeRef, 1)
			u.post = owed()
		}
	}
	b.end = owed()
}

// maxStrided bounds the registers a strided pass writes, so that the
// pass is a fixed-size part of its block's allocation. A copy step
// writes three: its two addresses and the value it copies, or one
// induction register, one address and the value.
const maxStrided = 4

// strided is a pass of a strided block as a batch runs it: a copy step.
// A block is strided when
//
//   - its terminal is a plain jump to its entry, or a branch that may
//     return there and compares only induction and invariant registers;
//   - every register the pass writes is an induction register, whose
//     only write is ADDI r, r, c, or a temporary, written before the
//     pass reads it: by its load, or by one ADD or SUB of two induction
//     or invariant registers (an invariant is written nowhere in the
//     pass);
//   - it makes one load, then one store of the value the load left in
//     its register, each at an induction or invariant register or such
//     an ADD/SUB temporary plus the immediate, and each address moves
//     by a multiple of its access width each pass;
//   - it writes at most maxStrided registers.
//
// Every address, ADD/SUB result and branch operand is then affine in the
// pass, and the stored value is the loaded one.
type strided struct {
	ld, st           affine           // the load's and the store's address
	ldWidth, stWidth uint8            // their widths
	signed           bool             // the load sign-extends
	nregs            uint8            // regs[:nregs]
	regs             [maxStrided]sreg // what the pass leaves in each register it writes, temporaries first
	term             *bop             // the branch terminal, or nil for a jump to the entry
	x, y             affine           // the branch's operands
}

// stridedBlock is a strided block and its pass, in one allocation:
// compiling a strided block allocates no more objects than compiling
// any other.
type stridedBlock struct {
	block
	pass strided
}

// affine is a value a strided pass computes without memory: in the
// batch's first pass R[a] + R[b] + off, or R[a] - R[b] + off when neg,
// where R is the register file at the batch's start, and step more in
// each pass after it.
type affine struct {
	off, step uint64
	a, b      uint8
	neg       bool
}

// at is v in the batch's first pass.
func (v *affine) at(r *[isa.NumRegs]uint64) uint64 {
	if v.neg {
		return r[v.a&regIdxMask] - r[v.b&regIdxMask] + v.off
	}
	return r[v.a&regIdxMask] + r[v.b&regIdxMask] + v.off
}

// sreg is the value a strided pass leaves in register r: an affine one,
// or the value its load read when loaded.
type sreg struct {
	affine
	r      uint8
	loaded bool
}

// strideOf returns b's pass as a batch runs it, and whether b is
// strided.
func strideOf(b *block) (strided, bool) {
	if !b.hasTerm {
		return strided{}, false
	}
	ops, t := b.ops[:len(b.ops)-1], &b.ops[len(b.ops)-1]
	// The registers the pass writes (register ops never write x0), and
	// its induction registers.
	var (
		writes [isa.NumRegs]int
		induct [isa.NumRegs]bool
		cur    [isa.NumRegs]sreg // each register's value so far
		set    [isa.NumRegs]bool // a temporary has none until its first write
	)
	for i := range ops {
		if u := &ops[i]; !isa.IsStore(u.op) && u.rd != isa.RegZero {
			writes[u.rd]++
			if u.op == isa.OpADDI && u.a == u.rd {
				induct[u.rd], cur[u.rd].step = true, u.imm
			}
		}
	}
	fixed := func(r uint8) bool { return writes[r] == 0 || induct[r] }
	for r := range cur {
		induct[r] = induct[r] && writes[r] == 1
		cur[r].a, set[r] = uint8(r), fixed(uint8(r))
	}
	// addr is the address of the memory op u, if it is affine and moves
	// by a multiple of u's width each pass.
	addr := func(u *bop) (affine, bool) {
		v := cur[u.a]
		v.off += u.imm
		return v.affine, set[u.a] && !v.loaded && int64(v.step)%int64(u.width) == 0
	}
	var s strided
	loaded, stored := false, false
	for i := range ops {
		var ok bool
		switch u := &ops[i]; {
		case u.op == isa.OpADDI && induct[u.rd]:
			cur[u.rd].off += u.imm
			ok = true
		case (u.op == isa.OpADD || u.op == isa.OpSUB) && fixed(u.a) && fixed(u.b):
			x, y := cur[u.a], cur[u.b]
			v := affine{off: x.off + y.off, step: x.step + y.step, a: u.a, b: u.b}
			if u.op == isa.OpSUB {
				v.off, v.step, v.neg = x.off-y.off, x.step-y.step, true
			}
			cur[u.rd], set[u.rd], ok = sreg{affine: v}, true, true
		case isa.IsLoad(u.op) && !loaded && u.rd != isa.RegZero:
			s.ld, ok = addr(u)
			s.ldWidth, s.signed, loaded = u.width, u.signed, true
			cur[u.rd], set[u.rd] = sreg{loaded: true}, true
		case isa.IsStore(u.op) && loaded && !stored && cur[u.b].loaded:
			s.st, ok = addr(u)
			s.stWidth, stored = u.width, true
		}
		if !ok {
			return strided{}, false
		}
	}
	switch {
	case !stored:
		return strided{}, false
	case t.op == isa.OpJAL && t.rd == isa.RegZero && t.imm == b.entryVA:
	case t.op == isa.OpJAL || t.op == isa.OpJALR || !fixed(t.a) || !fixed(t.b) ||
		t.imm != b.entryVA && t.va+isa.InstrSize != b.entryVA:
		return strided{}, false
	default:
		s.term = t
	}
	s.x, s.y = cur[t.a].affine, cur[t.b].affine
	for _, temps := range []bool{true, false} {
		for r := range writes {
			if writes[r] > 0 && induct[r] != temps {
				if s.nregs == maxStrided {
					return strided{}, false
				}
				cur[r].r = uint8(r)
				s.regs[s.nregs] = cur[r]
				s.nregs++
			}
		}
	}
	return s, true
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
