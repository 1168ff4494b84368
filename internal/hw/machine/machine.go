// Package machine assembles the simulated hardware platform: SRV64
// cores with per-core TLBs and L1 caches, a shared L2/LLC, sparse
// physical memory, DRAM regions or PMP as the isolation primitive, a
// DMA engine, and trap dispatch into machine-mode firmware.
//
// This package is the reproduction's substitute for the RISC-V hardware
// the paper's security monitor runs on (see DESIGN.md §2): the security
// monitor registers itself as the Firmware trap handler and manipulates
// cores, translation state and physical memory with M-mode authority,
// while untrusted OS code is confined to the S/U-mode access paths this
// package exposes.
package machine

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sanctorum/internal/hw/cache"
	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pmp"
	"sanctorum/internal/hw/tlb"
	"sanctorum/internal/hw/trng"
	"sanctorum/internal/isa"
)

// IsolationKind selects the platform's memory isolation primitive.
type IsolationKind int

// Isolation primitives.
const (
	// IsolationNone applies no physical memory checks: the insecure
	// baseline used for comparison experiments.
	IsolationNone IsolationKind = iota
	// IsolationSanctum isolates memory as DRAM regions with per-domain
	// region bitmaps and a private page walk for enclave VAs (§VII-A).
	IsolationSanctum
	// IsolationKeystone isolates memory with per-core PMP units (§VII-B).
	IsolationKeystone
)

func (k IsolationKind) String() string {
	switch k {
	case IsolationNone:
		return "none"
	case IsolationSanctum:
		return "sanctum"
	case IsolationKeystone:
		return "keystone"
	default:
		return fmt.Sprintf("isolation(%d)", int(k))
	}
}

// Disposition is the firmware's verdict on a trap.
type Disposition int

// Trap dispositions.
const (
	// DispResume continues executing on the core (the firmware handled
	// the event, e.g. delivered it to an enclave handler).
	DispResume Disposition = iota
	// DispReturnToOS stops the run loop and returns control to the
	// untrusted OS (Go-level caller), e.g. after an AEX.
	DispReturnToOS
	// DispHalt stops the core permanently.
	DispHalt
)

// Firmware handles machine-mode events: every trap and interrupt on any
// core lands here first, exactly as all events reach the security
// monitor before any untrusted software (paper Fig 1).
type Firmware interface {
	HandleTrap(c *Core, tr *isa.Trap) Disposition
}

// Config describes a machine.
type Config struct {
	Cores      int
	DRAM       dram.Layout
	Kind       IsolationKind
	TLBEntries int
	L1         cache.Config
	L2         cache.Config
	Seed       []byte // deterministic entropy seed; nil for host CSPRNG

	// DisableFastPath makes every core use the reference execution
	// path (per-step Decode, full TLB probe, page-map access on every
	// byte). Modeled cycles and all microarchitectural observables are
	// identical either way — equivalence tests run the same workload
	// both ways and compare — so this exists only for those tests and
	// for bisecting fast-path bugs.
	DisableFastPath bool

	// DisableBlockEngine keeps the fast path per-instruction, without
	// the trace-compiled block tier (block.go). Like DisableFastPath it
	// changes no modeled observable; it exists for equivalence testing
	// and for bisecting block-engine bugs.
	DisableBlockEngine bool

	// BlockThreshold overrides the execution count at which a hot
	// control-transfer target is block-compiled; 0 selects the default.
	// Tests use low values to force promotion on short workloads.
	BlockThreshold int
}

// DefaultConfig returns a 2-core machine with the default DRAM layout
// and modest cache sizes. New partitions the L2 by DRAM region when the
// Sanctum isolation kind is selected.
func DefaultConfig(kind IsolationKind) Config {
	return Config{
		Cores:      2,
		DRAM:       dram.DefaultLayout(),
		Kind:       kind,
		TLBEntries: 32,
		L1:         cache.Config{Sets: 64, Ways: 4, LineBits: 6, HitCycles: 2, MissCycles: 0},
		L2:         cache.Config{Sets: 1024, Ways: 8, LineBits: 6, HitCycles: 12, MissCycles: 100},
		Seed:       []byte("sanctorum-sim"),
	}
}

// Machine is the simulated hardware platform.
type Machine struct {
	Mem      *mem.Phys
	DRAM     dram.Layout
	L2       *cache.Cache
	Kind     IsolationKind
	Cores    []*Core
	Firmware Firmware
	Entropy  trng.Source

	// DMAAllowed is the SM-installed DMA filter (§IV-B1: the SM must be
	// able to restrict DMA). nil denies all DMA.
	DMAAllowed func(pa, n uint64) bool

	// cyclePub mirrors each core's CPU.Cycles into a padded atomic
	// slot so the telemetry clock can be read from any goroutine while
	// cores run in parallel mode. Cores publish at trap dispatch and
	// at Run exit; between publishes the mirror lags but never moves
	// backwards, so CycleNow is monotone per observer and — being
	// derived purely from modeled cycles — bit-identical across
	// deterministic replays.
	cyclePub []cycleSlot
}

type cycleSlot struct {
	v atomic.Uint64
	_ [56]byte
}

// CycleNow sums the published per-core cycle counters. It is the time
// base for every telemetry stamp: simulated cycles, never wall clock.
func (m *Machine) CycleNow() uint64 {
	var sum uint64
	for i := range m.cyclePub {
		sum += m.cyclePub[i].v.Load()
	}
	return sum
}

// publishCycles mirrors c's cycle counter; called only from c's own
// run goroutine.
func (m *Machine) publishCycles(c *Core) {
	m.cyclePub[c.ID].v.Store(c.CPU.Cycles)
}

// flushDecodeCaches drops every core's decoded instructions (its
// blocks then compare their words before they run again). It is
// installed as the physical memory's code-write hook, so any write
// into a page feeding a decode cache — guest stores (self-modifying
// code), SM scrubs, DMA — lands here, and it is the only thing that
// moves a core's icGen: translation teardown (core cleaning,
// shootdowns) drops translations, not decodes. The generations are
// atomics, so the hook is safe to fire from any hart.
func (m *Machine) flushDecodeCaches() {
	for _, c := range m.Cores {
		c.icGen.Add(1)
	}
}

// SetConcurrent prepares the machine for genuinely parallel multi-hart
// execution: the shared L2 starts serializing its accesses. Per-core
// state needs no locks (each core is driven by one goroutine) and
// physical memory is always hart-safe. It is a one-way latch — once a
// machine has gone concurrent, OS goroutines may keep issuing monitor
// calls that touch the L2 after any particular parallel run ends, so
// the locking stays on. Deterministic single-goroutine machines never
// latch it and the PR 1 fast path is untouched.
func (m *Machine) SetConcurrent(on bool) {
	m.L2.SetShared(on)
}

// markCodePage records that a physical page feeds a decode cache.
func (m *Machine) markCodePage(pa uint64) {
	m.Mem.MarkCodePage(pa)
}

// New builds a machine from the configuration.
func New(cfg Config) (*Machine, error) {
	if err := cfg.DRAM.Validate(); err != nil {
		return nil, err
	}
	if cfg.Cores <= 0 {
		return nil, fmt.Errorf("machine: need at least one core")
	}
	l2cfg := cfg.L2
	if cfg.Kind == IsolationSanctum {
		// Page-colored LLC: each DRAM region owns a disjoint set group,
		// selected by the region bits. Every PA that reaches the L2 has
		// passed physOK, so it lies inside the layout.
		l2cfg.Partitions = cfg.DRAM.RegionCount
		l2cfg.PartitionShift = cfg.DRAM.RegionShift
		if err := l2cfg.Validate(); err != nil {
			return nil, fmt.Errorf("machine: L2 page coloring over %d regions: %w", l2cfg.Partitions, err)
		}
	}
	var entropy trng.Source
	if cfg.Seed != nil {
		entropy = trng.NewDeterministic(cfg.Seed)
	} else {
		entropy = trng.NewSystem()
	}
	m := &Machine{
		Mem:     mem.New(cfg.DRAM.MemorySize()),
		DRAM:    cfg.DRAM,
		L2:      cache.New(l2cfg),
		Kind:    cfg.Kind,
		Entropy: entropy,
	}
	m.Mem.SetCodeWriteHook(m.flushDecodeCaches)
	m.cyclePub = make([]cycleSlot, cfg.Cores)
	for i := 0; i < cfg.Cores; i++ {
		c := &Core{
			ID:       i,
			TLB:      tlb.New(cfg.TLBEntries),
			L1:       cache.New(cfg.L1),
			machine:  m,
			fastPath: !cfg.DisableFastPath,
			sanctum:  cfg.Kind == IsolationSanctum,
			l1Hit:    cfg.L1.HitCycles,
			icache:   new([icEntries]icEntry),
		}
		c.icGen.Store(1)
		c.fetchWin.Reset(m.Mem)
		c.loadWin.Reset(m.Mem)
		c.storeWin.Reset(m.Mem)
		if c.fastPath && !cfg.DisableBlockEngine {
			c.blockHot = defaultBlockHot
			if cfg.BlockThreshold > 0 {
				c.blockHot = uint16(cfg.BlockThreshold)
			}
			c.blocks = new([bcEntries]*block)
			c.icHot = new([icEntries]uint16)
			c.seqPC = ^uint64(0)
		}
		if cfg.Kind == IsolationKeystone {
			c.PMP = new(pmp.Unit)
		}
		m.Cores = append(m.Cores, c)
	}
	return m, nil
}

// Core is one simulated hart plus the per-core hardware the paper's
// threat model names: TLB, private L1, timer, and the isolation state
// that the security monitor programs on protection-domain switches.
type Core struct {
	ID  int
	CPU isa.CPU
	TLB *tlb.TLB
	L1  *cache.Cache

	// Satp is the page-table root PPN for non-enclave VAs (and for all
	// VAs under Keystone, where the enclave brings its own table). Zero
	// means bare (identity) translation.
	Satp uint64

	// Sanctum per-core isolation registers (§VII-A).
	ESatp      uint64      // enclave page-table root for evrange
	EvBase     uint64      // enclave virtual range base
	EvMask     uint64      // enclave virtual range mask
	OSRegions  dram.Bitmap // DRAM regions the OS domain may touch
	EncRegions dram.Bitmap // DRAM regions the running enclave may touch

	// Keystone per-core PMP unit (nil unless IsolationKeystone).
	PMP *pmp.Unit

	// EnclaveMode is set by the SM while the core runs enclave code.
	EnclaveMode bool

	// TimerCmp fires a timer interrupt when CPU.Cycles passes it; zero
	// disables the timer. The untrusted OS uses this to force an AEX.
	// It is owned by whoever drives the core: written only while the
	// core is outside Run (or by the firmware inside a trap).
	TimerCmp uint64

	// pending is the core's asynchronous-event word, polled once per
	// instruction: bit 0 latches an external interrupt (InterruptCore),
	// bit 1 flags a non-architectural IPI mailbox delivery. One atomic
	// load covers both, and on the host ISAs we target an atomic load
	// is a plain load, so cross-core preemption costs the hot loop
	// nothing. It sits among the hot fast-path fields; the cold IPI
	// mailbox state lives at the end of the struct.
	pending atomic.Uint32

	machine *Machine

	// Fast-path execution state. None of it is architectural and none
	// of it affects modeled cycles or cache/TLB statistics; it only
	// removes host-side work (map lookups, per-step Decode) from the
	// hot loop. fastPath selects it; Config.DisableFastPath clears it.
	fastPath bool
	sanctum  bool                // machine.Kind == IsolationSanctum, dereference-free
	l1Hit    uint64              // L1 hit latency, the cycle cost of every fast-path hit
	icGen    atomic.Uint64       // code-write generation; decodes from older gens are dead
	icache   *[icEntries]icEntry // direct-mapped decoded-instruction cache, keyed by VA
	// The last-translation caches, L1 line refs and page windows are
	// kept per access class, so a loop that loads from one page and
	// stores to another keeps every one of them hitting.
	fetchTC  transCache
	loadTC   transCache
	storeTC  transCache
	loadRef  cache.LineRef // L1 line of the last load
	storeRef cache.LineRef // L1 line of the last store
	fetchWin mem.Window    // last code page touched
	loadWin  mem.Window    // last page loaded from
	storeWin mem.Window    // last page stored to
	irqTrap  isa.Trap      // reusable interrupt trap buffer

	// Block-engine state (block.go). seqPC tracks fetch sequentiality
	// so block lookup and heat counting run only at control-transfer
	// targets; blockHot is the promotion threshold (0 = engine off);
	// icHot are the heat counters, indexed like the decode cache.
	seqPC    uint64
	blockHot uint16
	blocks   *[bcEntries]*block
	icHot    *[icEntries]uint16
	brun     blockRun
	bstats   BlockStats

	// Cold cross-hart coordination state, kept at the end so it never
	// shares a cache line with the per-instruction fields above. ipi is
	// the core's inter-processor mailbox (shootdowns, view updates);
	// see ipi.go. runMu is held for the whole of Run, so whoever
	// acquires it owns the core's microarchitectural state — either the
	// core's own driver, or an IPI poster executing a request on an
	// idle core's behalf.
	ipi   ipiMailbox
	runMu sync.Mutex

	// resTrap is the buffer RunResult.Trap points into: the trap that
	// ended the core's last Run, valid until its next Run.
	resTrap isa.Trap
	// faultRec is the buffer a failed access's fault record points
	// into (memFault), valid until the core's next failed access.
	faultRec isa.MemFault
}

// icEntries is the per-core decoded-instruction cache size (slots of
// one instruction word each, direct-mapped on the word's VA).
const icEntries = 1024

// icEntry caches everything about one instruction fetch: the decoded
// word plus the validity conditions under which the whole reference
// fetch pipeline — TLB probe, L1 access, page-map load, Decode — is
// guaranteed to reproduce exactly this outcome. When every generation
// matches, the fetch reduces to the same statistic updates the
// reference path would make (TLB hit, L1 hit with LRU touch) at a few
// nanoseconds; when any layer moved, the fetch re-runs that layer. The
// decode itself depends only on the word, so it outlives translation
// teardown: after a TLB flush the fetch re-translates and re-charges,
// and keeps the decode when the VA still maps to the same PA.
// The entry is exactly one host cache line (64 bytes): the hit check
// touches no second line. The TLB generation and the privilege mode
// are packed into one word (tgMode) — the pack is injective, so one
// equality compare validates both. The raw instruction word is not
// stored: Decode is lossless, so Instr.Encode reconstructs it on the
// cold illegal-instruction path.
type icEntry struct {
	va     uint64
	gen    uint64 // core's icGen: killed only by a write into a marked code page
	tgMode uint64 // TLB generation <<2 | privilege mode at validation
	root   uint64 // page-table root the translation came from
	pa     uint64
	in     isa.Instr
	lref   cache.LineRef // L1 line holding the instruction word
}

// tgMode packs a TLB generation and a privilege mode into one
// comparable word. Priv fits in two bits; generations stay far below
// 2^62 (one bump per TLB eviction, replacement or flush).
func tgMode(tlbGen uint64, mode isa.Priv) uint64 { return tlbGen<<2 | uint64(mode) }

// transCache is a one-entry last-translation cache in front of the TLB
// for one access class. It short-circuits only accesses the TLB itself
// would serve: the entry is dead as soon as the TLB's generation moves
// (a translation left the TLB), and it still charges the TLB hit
// statistic, so Hits/Misses stay bit-identical to the reference path.
type transCache struct {
	gen    uint64 // TLB generation the entry was filled at; 0 = invalid
	vpn    uint64
	paPage uint64 // physical page base
	root   uint64 // page-table root the translation came from
	mode   isa.Priv
}

// Machine returns the machine this core belongs to.
func (c *Core) Machine() *Machine { return c.machine }

// InEvrange reports whether va falls in the enclave virtual range
// programmed on this core.
func (c *Core) InEvrange(va uint64) bool {
	return c.EvMask != 0 && va&c.EvMask == c.EvBase
}

// ClearMicroarch flushes the core's TLB and private L1 cache: the
// "cleaning" of a core resource on protection-domain re-allocation.
// It drops translations and cache lines, not decodes: the TLB flush
// kills the last-translation caches and every cached TLB hit (decode
// cache entries and block guards), so the next domain re-translates
// and re-charges every fetch exactly as the reference path does, but
// decoded instructions and compiled blocks, which depend only on the
// code words, survive to be revalidated against the refilled TLB.
func (c *Core) ClearMicroarch() {
	c.TLB.Flush()
	c.L1.FlushAll()
}

// ClearArchState zeroes the architectural registers, as the SM must do
// before handing a core from an enclave to the OS.
func (c *Core) ClearArchState() {
	c.CPU.Regs = [isa.NumRegs]uint64{}
}
