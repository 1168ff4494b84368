// Package cache models the set-associative caches of the simulated
// machine with a deterministic cycle cost per access. The shared
// last-level cache is the side-channel surface the paper's threat model
// centres on: Sanctum partitions it by DRAM region (page coloring) so
// that no two protection domains contend for the same sets, while
// Keystone (and the insecure baseline) leave it shared. The model
// exposes exactly the observable an attacker has on real hardware —
// the latency of its own accesses — plus white-box inspection hooks for
// tests.
package cache

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// Config describes a cache.
type Config struct {
	Sets       int    // number of sets; power of two
	Ways       int    // associativity
	LineBits   uint   // log2 of line size in bytes
	HitCycles  uint64 // latency of a hit
	MissCycles uint64 // latency of a miss (includes fill)

	// Partitions, when non-zero, splits the cache into that many
	// partitions of Sets/Partitions consecutive sets; an address's
	// partition is pa>>PartitionShift modulo Partitions. This models
	// Sanctum's page-colored LLC, where PartitionShift is the DRAM
	// region shift: the set index is the region bits followed by the
	// low line-address bits, so a region's lines sit only in its own
	// sets. Zero leaves the cache fully shared.
	Partitions     int
	PartitionShift uint
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Sets <= 0 || bits.OnesCount(uint(c.Sets)) != 1 {
		return fmt.Errorf("cache: sets %d not a positive power of two", c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache: ways %d", c.Ways)
	}
	if c.LineBits < 3 || c.LineBits > 12 {
		return fmt.Errorf("cache: line bits %d outside [3,12]", c.LineBits)
	}
	if c.Partitions != 0 || c.PartitionShift != 0 {
		if c.Partitions <= 0 || c.Sets%c.Partitions != 0 {
			return fmt.Errorf("cache: %d partitions does not divide %d sets", c.Partitions, c.Sets)
		}
		// Below the line bits a line would straddle partitions.
		if c.PartitionShift < c.LineBits || c.PartitionShift > 63 {
			return fmt.Errorf("cache: partition shift %d outside [%d,63]", c.PartitionShift, c.LineBits)
		}
	}
	return nil
}

type line struct {
	tag   uint64 // full line address (pa >> LineBits)
	valid bool
	epoch uint64 // flush epoch the line was filled in
	lru   uint64 // last-access stamp
}

// live reports whether the line is resident in the current epoch.
func (l *line) live(epoch uint64) bool { return l.valid && l.epoch == epoch }

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	cfg      Config
	sets     [][]line
	stamp    uint64
	lineBits uint

	// The set index of pa is (pa>>partShift & partMask)<<perBits |
	// pa>>lineBits & perMask: the partition's first set plus the low
	// line-address bits. Sets is a power of two that Partitions
	// divides, so both fields are masks. An unpartitioned cache is one
	// partition of every set (partMask 0, partShift 64).
	partShift uint
	partMask  uint64
	perBits   uint
	perMask   uint64

	// epoch implements O(1) full flushes: lines filled in an older
	// epoch are not resident, so FlushAll is one increment instead of
	// a sweep over every way. Core cleaning runs on every protection-
	// domain switch, which makes this the hot path of enclave
	// enter/exit.
	epoch uint64

	// live counts the resident lines: a fill into a non-resident way
	// adds one, a flushed line removes one and FlushAll zeroes it. It
	// makes Live O(1) and lets FlushRange skip an empty cache — a core
	// cleaned on its last domain switch holds nothing when a region
	// is cleaned after it.
	live int

	// Statistics.
	Hits      uint64
	Misses    uint64
	Evictions uint64

	// shared serializes the multi-consumer entry points (Access, Probe,
	// the flushes) when the cache is reachable from more than one hart
	// at once — the machine's L2 in parallel-scheduler mode. Per-core
	// caches and deterministic execution leave it off, so the
	// single-threaded fast path pays only an untaken branch. TouchFast
	// and AccessRef are exempt by contract (see SetShared): they stay
	// small enough to inline into the per-instruction hot path.
	shared bool
	mu     sync.Mutex
}

// SetShared(true) latches locking of the multi-consumer entry points
// on. The machine sets it on its shared L2 before spawning the first
// concurrent hart, which is also the happens-before edge that makes
// the plain flag publication safe; it is a one-way latch —
// SetShared(false) is a no-op — because OS goroutines may keep
// touching the cache after any particular parallel run ends.
//
// TouchFast and AccessRef remain lock-free: they are the per-core L1
// fast path, single-consumer by construction (a LineRef belongs to one
// core), and the machine never uses them on the shared L2. Keeping
// them branch-only preserves their inlining into the interpreter's
// per-instruction sequence.
func (c *Cache) SetShared(on bool) {
	if on && !c.shared {
		c.shared = true
	}
}

// LineRef is a consumer-held handle to the way of the last access, the
// cache-model analogue of the machine's last-translation caches: while
// that way still holds the same line in the current epoch, a repeat
// access to the line can skip the set scan. A line is live in at most
// one way of its set (a fill happens only after the scan missed), so
// the way a ref names is exactly the way a scan would hit; fills,
// evictions and flushes elsewhere in the cache leave the ref valid.
// TouchFast performs bookkeeping identical to a scanning hit (stamp,
// LRU, hit statistic), so the observable cache state — contents,
// replacement order, statistics, timing — is bit-identical to calling
// Access.
type LineRef struct {
	line *line
}

// holds reports whether ref's way holds pa's line in the current epoch.
func (c *Cache) holds(pa uint64, ref *LineRef) bool {
	l := ref.line
	return l != nil && l.live(c.epoch) && l.tag == pa>>c.lineBits
}

// TouchFast re-performs a hit through the ref if its way still holds
// pa's line; the hit latency is the cache's Config().HitCycles, which
// hot callers keep in a local. false means the caller must fall back
// to Access/AccessRef.
func (c *Cache) TouchFast(pa uint64, ref *LineRef) bool {
	if !c.holds(pa, ref) {
		return false
	}
	c.stamp++
	ref.line.lru = c.stamp
	c.Hits++
	return true
}

// TouchFastN is n consecutive TouchFast hits on the same line in one
// call, for callers that batch a run of same-line accesses with nothing
// else touching the cache in between (the block engine's per-segment
// instruction fetches). It is bit-exact to calling TouchFast n times:
// the stamp advances by n, the line's LRU lands on the last of those
// stamps, and n hits are recorded. false means the caller must fall
// back to per-access TouchFast/AccessRef, which re-establishes the ref.
func (c *Cache) TouchFastN(pa uint64, ref *LineRef, n uint64) bool {
	if !c.holds(pa, ref) {
		return false
	}
	c.stamp += n
	ref.line.lru = c.stamp
	c.Hits += n
	return true
}

// AccessRef is Access, additionally pointing ref at the touched line so
// the next same-line access can go through TouchFast.
func (c *Cache) AccessRef(pa uint64, ref *LineRef) (hit bool, cycles uint64) {
	hit, cycles, ref.line = c.access(pa)
	return hit, cycles
}

// New builds a cache. It panics on invalid configuration, which is a
// programming error in platform setup rather than a runtime condition.
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]line, cfg.Sets)
	lines := make([]line, cfg.Sets*cfg.Ways)
	for i := range sets {
		sets[i], lines = lines[:cfg.Ways], lines[cfg.Ways:]
	}
	parts, partShift := 1, uint(64)
	if cfg.Partitions != 0 {
		parts, partShift = cfg.Partitions, cfg.PartitionShift
	}
	per := cfg.Sets / parts
	return &Cache{
		cfg: cfg, sets: sets, lineBits: cfg.LineBits,
		partShift: partShift, partMask: uint64(parts - 1),
		perBits: uint(bits.TrailingZeros(uint(per))), perMask: uint64(per - 1),
	}
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// setIndex computes the set for a physical address, honouring
// partitioning.
func (c *Cache) setIndex(pa uint64) int {
	// Masking the shift counts with 63 lets the compiler emit bare
	// shifts. Only an unpartitioned cache's partShift of 64 changes
	// under the mask, and its partMask of 0 discards that term anyway.
	return int((pa>>(c.partShift&63)&c.partMask)<<(c.perBits&63) | pa>>(c.lineBits&63)&c.perMask)
}

// Access performs a cached access to pa, returning whether it hit and
// the cycle cost. A miss fills the line, evicting LRU if needed.
func (c *Cache) Access(pa uint64) (hit bool, cycles uint64) {
	if c.shared {
		c.mu.Lock()
		hit, cycles, _ = c.access(pa)
		c.mu.Unlock()
		return hit, cycles
	}
	hit, cycles, _ = c.access(pa)
	return hit, cycles
}

// access is the shared body of Access and AccessRef; it also returns
// the line that was hit or filled.
func (c *Cache) access(pa uint64) (hit bool, cycles uint64, l *line) {
	c.stamp++
	set := c.sets[c.setIndex(pa)]
	tag := pa >> c.lineBits
	for i := range set {
		if set[i].live(c.epoch) && set[i].tag == tag {
			set[i].lru = c.stamp
			c.Hits++
			return true, c.cfg.HitCycles, &set[i]
		}
	}
	c.Misses++
	// Fill: choose a non-resident way, else LRU.
	victim := 0
	for i := range set {
		if !set[i].live(c.epoch) {
			victim = i
			c.live++
			goto fill
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	c.Evictions++
fill:
	set[victim] = line{tag: tag, valid: true, epoch: c.epoch, lru: c.stamp}
	return false, c.cfg.MissCycles, &set[victim]
}

// Probe reports whether pa is cached without updating any state; the
// white-box equivalent of a timing probe, used by tests.
func (c *Cache) Probe(pa uint64) bool {
	if c.shared {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	set := c.sets[c.setIndex(pa)]
	tag := pa >> c.cfg.LineBits
	for i := range set {
		if set[i].live(c.epoch) && set[i].tag == tag {
			return true
		}
	}
	return false
}

// FlushAll invalidates the entire cache (core cleaning). Advancing the
// flush epoch makes every resident line non-live in O(1); this runs on
// every protection-domain switch, so it must not sweep the ways.
func (c *Cache) FlushAll() {
	if c.shared {
		c.mu.Lock()
		c.epoch, c.live = c.epoch+1, 0
		c.mu.Unlock()
		return
	}
	c.epoch, c.live = c.epoch+1, 0
}

// FlushRange invalidates every resident line overlapping [pa, pa+n),
// returning the count: the cache half of cleaning a DRAM region on
// re-allocation. It visits only the sets those lines index — on a
// partitioned cache a region is its own partition's sets — and sweeps
// the whole cache when the range could index every set, and returns
// at once from a cache that holds no line. No other line's state or
// statistic changes.
func (c *Cache) FlushRange(pa, n uint64) int {
	if c.shared {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	if n == 0 || c.live == 0 {
		return 0
	}
	first, last := pa>>c.lineBits, (pa+n-1)>>c.lineBits
	if pa+n-1 < pa {
		last = math.MaxUint64 >> c.lineBits // clip at the top of memory
	}
	// Between two partition boundaries (a run) the set index is the
	// partition's first set plus the low line bits, so a run indexes at
	// most span consecutive sets of its partition. A range whose runs
	// could index every set is one sweep, which also bounds the loop.
	runBits := c.partShift - c.lineBits
	runs := last>>runBits - first>>runBits + 1
	span := min(c.perMask+1, uint64(1)<<runBits)
	sets := uint64(len(c.sets))
	flushed := 0
	if last-first >= sets-1 && runs >= sets/span {
		for _, set := range c.sets {
			flushed += c.flushSet(set, first, last)
		}
		return flushed
	}
	for l := first; ; {
		runEnd := min(last, (l>>runBits+1)<<runBits-1)
		base := (l >> runBits & c.partMask) << c.perBits
		for i, end := l, min(runEnd, l+span-1); i <= end; i++ {
			flushed += c.flushSet(c.sets[base|i&c.perMask], first, last)
		}
		if runEnd == last {
			return flushed
		}
		l = runEnd + 1
	}
}

// flushSet invalidates the resident lines of set whose line address
// lies in [first, last].
func (c *Cache) flushSet(set []line, first, last uint64) int {
	n := 0
	for i := range set {
		if set[i].live(c.epoch) && set[i].tag >= first && set[i].tag <= last {
			set[i].valid = false
			n++
		}
	}
	c.live -= n
	return n
}

// Live returns the number of resident lines.
func (c *Cache) Live() int {
	if c.shared {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	return c.live
}

// LineState is one way's white-box state.
type LineState struct {
	Tag      uint64 // line address (pa >> LineBits)
	Resident bool
	LRU      uint64 // last-access stamp
}

// Snapshot returns every way's state, set by set, so tests can check
// that an operation touched exactly the lines it should have.
func (c *Cache) Snapshot() []LineState {
	if c.shared {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	out := make([]LineState, 0, c.cfg.Sets*c.cfg.Ways)
	for _, set := range c.sets {
		for i := range set {
			out = append(out, LineState{Tag: set[i].tag, Resident: set[i].live(c.epoch), LRU: set[i].lru})
		}
	}
	return out
}

// SetOf exposes the set index mapping for tests and attack tooling.
func (c *Cache) SetOf(pa uint64) int { return c.setIndex(pa) }
