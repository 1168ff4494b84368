// Package mem models the physical memory of the simulated machine.
//
// Memory is sparse: pages are materialized (zero-filled) on first touch,
// so a simulated machine can expose a large physical address space while
// the host allocation stays proportional to the pages actually used.
// All privileged software in the reproduction (the security monitor) and
// all hardware-mediated paths (page-table walks, DMA, the interpreter's
// loads and stores) ultimately read and write through this package.
//
// Two hooks support the machine's fast-path execution engine without
// changing any architectural semantics: an inline code-write check on
// every store (so decoded-instruction caches can be dropped when code
// is overwritten), and Window, a last-page pointer cache that lets a
// core skip the page-map lookup on same-page traffic.
//
// The page table itself is safe for concurrent cores: pages live in a
// flat atomic pointer table (materialization is a compare-and-swap, so
// two harts touching a fresh page agree on one backing array), and the
// code-page mark set and the ZeroRange generation are atomics. Whole
// pages ZeroRange drops are kept on a small free list and handed out
// again, zeroed by the next materialization or overwritten by a page
// copy, so a scrub-and-reuse cycle (clean a region, grant it, touch
// it) allocates nothing. This is
// exactly the sharing model of the hardware being simulated — a memory
// bus that many harts address concurrently — and it costs the
// single-threaded fast path nothing: the atomic loads compile to plain
// loads on the host ISAs we run on, and the pointer-table index replaces
// what used to be a map lookup. Byte-level races between harts writing
// the same location are the guest program's business, as on real
// hardware; the security monitor's region isolation keeps protection
// domains on disjoint pages.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Page geometry, shared by the whole simulator.
const (
	PageBits = 12
	PageSize = 1 << PageBits
	PageMask = PageSize - 1
)

// freeCap bounds the free list of dropped pages. It covers the pages
// one enclave cold start scrubs (7 on the serving benchmark); a larger
// scrub leaves the rest to the Go GC.
const freeCap = 16

// Errors reported by physical memory. Higher layers translate these into
// architectural access faults.
var (
	ErrOutOfRange = errors.New("mem: physical address out of range")
	ErrUnaligned  = errors.New("mem: unaligned access")
	ErrBadWidth   = errors.New("mem: unsupported access width")
	// ErrCOWProtected is returned for any write landing in a page the
	// security monitor has frozen copy-on-write (enclave snapshots): the
	// page's contents back one or more aliased mappings and may only
	// change through the monitor's copy-then-retry fault protocol, never
	// in place. This is the physical-memory backstop — page-table
	// permissions already deny guest stores; this catches host-level
	// writes (S-mode kernel stores, DMA) that bypass a page walk.
	ErrCOWProtected = errors.New("mem: write to a copy-on-write frozen page")
)

// Phys is a sparse physical memory of a fixed size.
type Phys struct {
	size    uint64
	pages   []atomic.Pointer[[PageSize]byte]
	touched atomic.Int64 // materialized pages, for TouchedPages

	// codePages marks pages whose contents feed a consumer-side cache
	// (the machine's decoded-instruction caches). Every write checks
	// it inline — no indirect call on the store hot path — and a write
	// landing in a marked page clears the set and fires onCodeWrite.
	codePages   []atomic.Uint64
	onCodeWrite func()

	// zeroGen invalidates Window pointer caches: ZeroRange advances it
	// after its dropped pages left the table and before any of them
	// joins the free list, so a cached page pointer is never read after
	// its page backs another address.
	zeroGen atomic.Uint64

	// refs counts, per page, how many snapshot/alias holders reference
	// the page's contents (the monitor's enclave-snapshot subsystem:
	// one reference for the snapshot itself plus one per clone still
	// aliasing the page). A page with a nonzero count must not be
	// scrubbed or re-allocated; tests use TotalRefs to prove teardown
	// returns every count to zero.
	refs []atomic.Uint32

	// cowPages marks pages frozen copy-on-write: every write path of
	// this package (Store, WriteBytes — the paths S-mode software and
	// DMA reach) refuses writes into a marked page with
	// ErrCOWProtected. The monitor's own page copies target unmarked
	// destination pages, so the mark never blocks the fault protocol.
	cowPages []atomic.Uint64

	// free holds whole pages ZeroRange dropped, for the next
	// materialization to reuse (zeroed) instead of allocating.
	freeMu sync.Mutex
	free   [freeCap]*[PageSize]byte
	nfree  int

	// dropHook, when a test sets it, runs after each whole page leaves
	// the table inside ZeroRange, so Window refills can be interleaved
	// with a scrub deterministically.
	dropHook func(ppn uint64)
}

// New returns a physical memory covering addresses [0, size). Size is
// rounded up to a whole number of pages.
func New(size uint64) *Phys {
	size = (size + PageMask) &^ uint64(PageMask)
	return &Phys{
		size:      size,
		pages:     make([]atomic.Pointer[[PageSize]byte], size>>PageBits),
		codePages: make([]atomic.Uint64, (size>>PageBits+63)/64),
		refs:      make([]atomic.Uint32, size>>PageBits),
		cowPages:  make([]atomic.Uint64, (size>>PageBits+63)/64),
	}
}

// Size returns the extent of physical memory in bytes.
func (m *Phys) Size() uint64 { return m.size }

// Pages returns the number of 4 KiB pages in the address space.
func (m *Phys) Pages() uint64 { return m.size >> PageBits }

// SetCodeWriteHook installs fn to be called whenever a write — a guest
// store, a Go-level WriteBytes (loaders, DMA), or a ZeroRange or
// ClearPage scrub — lands in a page marked by MarkCodePage. The mark
// set is cleared before fn runs; the consumer re-marks pages as it
// refills. fn must be safe to call from any hart (the machine's
// implementation only bumps per-core atomic generations). Install once
// at machine construction, before any concurrent execution.
func (m *Phys) SetCodeWriteHook(fn func()) { m.onCodeWrite = fn }

// MarkCodePage records that the page containing addr feeds a
// consumer-side cache that must be invalidated when the page is
// written.
func (m *Phys) MarkCodePage(addr uint64) {
	p := addr >> PageBits
	m.codePages[p>>6].Or(1 << (p & 63))
}

// noteWrite fires the code-write hook if [addr, addr+n) touches a
// marked page. n > 0; the range is already validated.
func (m *Phys) noteWrite(addr, n uint64) {
	for p, last := addr>>PageBits, (addr+n-1)>>PageBits; p <= last; p++ {
		if m.codePages[p>>6].Load()&(1<<(p&63)) != 0 {
			m.codeWriteHit()
			return
		}
	}
}

// codeWriteHit is the marked-code-page write slow path: the snoop set
// resets (every marked page re-registers on its next fetch) and the
// code-write hook fires.
func (m *Phys) codeWriteHit() bool {
	for i := range m.codePages {
		m.codePages[i].Store(0)
	}
	if m.onCodeWrite != nil {
		m.onCodeWrite()
	}
	return true
}

// Retain adds one alias reference to the page containing addr. The
// security monitor takes a reference for a snapshot freezing the page
// and one per clone aliasing it.
func (m *Phys) Retain(addr uint64) { m.refs[addr>>PageBits].Add(1) }

// ReleaseRef drops one alias reference from the page containing addr,
// returning the remaining count. Releasing below zero is a monitor
// bug and panics rather than silently corrupting the accounting.
func (m *Phys) ReleaseRef(addr uint64) uint32 {
	n := m.refs[addr>>PageBits].Add(^uint32(0))
	if n == ^uint32(0) {
		panic("mem: page reference released below zero")
	}
	return n
}

// PageRefs reports the alias reference count of the page containing
// addr.
func (m *Phys) PageRefs(addr uint64) uint32 { return m.refs[addr>>PageBits].Load() }

// TotalRefs sums every page's alias reference count — the leak check
// tests run after snapshot/clone teardown, expecting zero.
func (m *Phys) TotalRefs() uint64 {
	var total uint64
	for i := range m.refs {
		total += uint64(m.refs[i].Load())
	}
	return total
}

// RangeHasRefs reports whether any page of [addr, addr+n) holds alias
// references; the monitor refuses to scrub such a range.
func (m *Phys) RangeHasRefs(addr, n uint64) bool {
	if n == 0 {
		return false
	}
	for p, last := addr>>PageBits, (addr+n-1)>>PageBits; p <= last && p < uint64(len(m.refs)); p++ {
		if m.refs[p].Load() != 0 {
			return true
		}
	}
	return false
}

// MarkCOW freezes the page containing addr copy-on-write: subsequent
// Store/WriteBytes into it fail with ErrCOWProtected until ClearCOW.
func (m *Phys) MarkCOW(addr uint64) {
	p := addr >> PageBits
	m.cowPages[p>>6].Or(1 << (p & 63))
}

// ClearCOW unfreezes the page containing addr.
func (m *Phys) ClearCOW(addr uint64) {
	p := addr >> PageBits
	m.cowPages[p>>6].And(^uint64(1 << (p & 63)))
}

// IsCOW reports whether the page containing addr is frozen
// copy-on-write.
func (m *Phys) IsCOW(addr uint64) bool {
	p := addr >> PageBits
	return m.cowPages[p>>6].Load()&(1<<(p&63)) != 0
}

// cowDenies reports whether a write of n bytes at addr touches any
// frozen page. The range is already validated and n > 0.
func (m *Phys) cowDenies(addr, n uint64) bool {
	for p, last := addr>>PageBits, (addr+n-1)>>PageBits; p <= last; p++ {
		if m.cowPages[p>>6].Load()&(1<<(p&63)) != 0 {
			return true
		}
	}
	return false
}

// page returns the backing page for ppn, materializing it if needed.
func (m *Phys) page(ppn uint64) *[PageSize]byte {
	if p := m.pages[ppn].Load(); p != nil {
		return p
	}
	return m.materialize(ppn)
}

// materialize backs ppn with a zeroed page: a recycled one from the
// free list when there is one, else a new allocation.
func (m *Phys) materialize(ppn uint64) *[PageSize]byte {
	p := m.recycled()
	if p == nil {
		p = new([PageSize]byte)
	} else {
		*p = [PageSize]byte{}
	}
	return m.install(ppn, p)
}

// recycled pops a page off the free list, or returns nil. Its contents
// are stale: the caller zeroes or overwrites it.
func (m *Phys) recycled() *[PageSize]byte {
	var p *[PageSize]byte
	m.freeMu.Lock()
	if m.nfree > 0 {
		m.nfree--
		p, m.free[m.nfree] = m.free[m.nfree], nil
	}
	m.freeMu.Unlock()
	return p
}

// install backs ppn with p unless it is already backed, returning the
// page that backs it. Two harts materializing the same page race
// through a compare-and-swap and agree on one winner; the loser's page
// is left to the Go GC.
func (m *Phys) install(ppn uint64, p *[PageSize]byte) *[PageSize]byte {
	if m.pages[ppn].CompareAndSwap(nil, p) {
		m.touched.Add(1)
		return p
	}
	return m.pages[ppn].Load()
}

// TouchedPages reports how many pages are materialized (pages on the
// free list do not count); useful for asserting that the simulation
// stays sparse.
func (m *Phys) TouchedPages() int { return int(m.touched.Load()) }

func (m *Phys) checkRange(addr, n uint64) error {
	if addr >= m.size || n > m.size-addr {
		return fmt.Errorf("%w: %#x+%d (size %#x)", ErrOutOfRange, addr, n, m.size)
	}
	return nil
}

// ReadBytes copies len(dst) bytes starting at addr into dst.
func (m *Phys) ReadBytes(addr uint64, dst []byte) error {
	if err := m.checkRange(addr, uint64(len(dst))); err != nil {
		return err
	}
	for len(dst) > 0 {
		ppn, off := addr>>PageBits, addr&PageMask
		n := copy(dst, m.page(ppn)[off:])
		dst = dst[n:]
		addr += uint64(n)
	}
	return nil
}

// WriteBytes copies src into memory starting at addr. Writes touching
// a copy-on-write frozen page are refused whole with ErrCOWProtected
// before any byte lands.
func (m *Phys) WriteBytes(addr uint64, src []byte) error {
	if err := m.checkRange(addr, uint64(len(src))); err != nil {
		return err
	}
	if len(src) > 0 {
		if m.cowDenies(addr, uint64(len(src))) {
			return fmt.Errorf("%w: %#x+%d", ErrCOWProtected, addr, len(src))
		}
		m.noteWrite(addr, uint64(len(src)))
	}
	for len(src) > 0 {
		ppn, off := addr>>PageBits, addr&PageMask
		n := copy(m.page(ppn)[off:], src)
		src = src[n:]
		addr += uint64(n)
	}
	return nil
}

// checkAccess validates width, alignment and range for Load/Store.
func (m *Phys) checkAccess(addr uint64, width int) error {
	switch width {
	case 1, 2, 4, 8:
	default:
		return fmt.Errorf("%w: %d", ErrBadWidth, width)
	}
	if addr&(uint64(width)-1) != 0 {
		return fmt.Errorf("%w: %#x width %d", ErrUnaligned, addr, width)
	}
	return m.checkRange(addr, uint64(width))
}

// LoadFrom reads the little-endian value of width bytes at off in page
// p. The access is naturally aligned, so it never crosses the page.
// The masks bound the slice offsets so the compiler drops its bounds
// checks.
func LoadFrom(p *[PageSize]byte, off uint64, width int) uint64 {
	off &= PageMask
	switch width {
	case 1:
		return uint64(p[off])
	case 2:
		return uint64(binary.LittleEndian.Uint16(p[off&^uint64(1):]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(p[off&^uint64(3):]))
	default:
		return binary.LittleEndian.Uint64(p[off&^uint64(7):])
	}
}

// StoreTo writes the little-endian value of width bytes at off in page
// p, under LoadFrom's alignment contract.
func StoreTo(p *[PageSize]byte, off uint64, width int, val uint64) {
	off &= PageMask
	switch width {
	case 1:
		p[off] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(p[off&^uint64(1):], uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(p[off&^uint64(3):], uint32(val))
	default:
		binary.LittleEndian.PutUint64(p[off&^uint64(7):], val)
	}
}

// Load reads a naturally-aligned little-endian value of width 1, 2, 4 or
// 8 bytes.
func (m *Phys) Load(addr uint64, width int) (uint64, error) {
	if err := m.checkAccess(addr, width); err != nil {
		return 0, err
	}
	return LoadFrom(m.page(addr>>PageBits), addr&PageMask, width), nil
}

// Store writes a naturally-aligned little-endian value of width 1, 2, 4
// or 8 bytes. Stores into a copy-on-write frozen page are refused with
// ErrCOWProtected.
func (m *Phys) Store(addr uint64, width int, val uint64) error {
	if err := m.checkAccess(addr, width); err != nil {
		return err
	}
	if m.IsCOW(addr) {
		return fmt.Errorf("%w: %#x", ErrCOWProtected, addr)
	}
	m.noteWrite(addr, uint64(width))
	StoreTo(m.page(addr>>PageBits), addr&PageMask, width, val)
	return nil
}

// ZeroRange clears [addr, addr+n). The security monitor uses this when
// cleaning a memory resource before re-allocation (Fig 2 of the paper).
// Whole pages are de-materialized, so cleaning a region also returns
// its host allocation to the page table's sparse baseline, and the
// dropped pages go to the free list for the next materialization.
//
// The order is what makes reuse safe for Windows: every dropped page
// leaves the table first, then zeroGen advances, and only then do the
// pages join the free list. A Window that refilled before the bump
// holds a stale generation and refills on its next access; one that
// refills after it cannot find a dropped page in the table. No Window
// can therefore hold a recycled page under the current generation. A
// scrub that drops no page clears bytes in place, which every cached
// pointer sees, and leaves the generation alone.
func (m *Phys) ZeroRange(addr, n uint64) error {
	if err := m.checkRange(addr, n); err != nil {
		return err
	}
	if n == 0 {
		return nil
	}
	m.noteWrite(addr, n)
	var dropped [freeCap]*[PageSize]byte
	nd := 0
	end := addr + n
	for addr < end {
		ppn, off := addr>>PageBits, addr&PageMask
		chunk := uint64(PageSize) - off
		if chunk > end-addr {
			chunk = end - addr
		}
		if off == 0 && chunk == PageSize {
			// A whole page reads as zero once out of the table; dropping
			// it keeps host memory proportional to live pages.
			if p := m.drop(ppn); p != nil {
				m.touched.Add(-1)
				if nd < freeCap {
					dropped[nd] = p
				}
				nd++
				if m.dropHook != nil {
					m.dropHook(ppn)
				}
			}
		} else if p := m.pages[ppn].Load(); p != nil {
			clear(p[off : off+chunk])
		}
		// Untouched pages are already zero; skip materializing them.
		addr += chunk
	}
	if nd == 0 {
		return nil // no page left the table, so every cached pointer holds
	}
	m.zeroGen.Add(1)
	m.freeMu.Lock()
	m.nfree += copy(m.free[m.nfree:], dropped[:min(nd, freeCap)])
	m.freeMu.Unlock()
	return nil
}

// drop takes ppn's page out of the table and returns it, or nil when
// the page was never materialized; that common case in a scrub costs a
// load, not an atomic swap.
func (m *Phys) drop(ppn uint64) *[PageSize]byte {
	if m.pages[ppn].Load() == nil {
		return nil
	}
	return m.pages[ppn].Swap(nil)
}

// ZeroPage clears the page containing addr.
func (m *Phys) ZeroPage(addr uint64) error {
	return m.ZeroRange(addr&^uint64(PageMask), PageSize)
}

// ClearPage clears the page containing addr where it sits: a
// materialized page is zeroed in place and stays materialized, so every
// Window on it reads the zeros and zeroGen does not move, and a page
// never materialized already reads as zero and stays unmaterialized.
// The write is noted for the code-page snoop. ZeroPage drops the page
// instead, which keeps the host allocation sparse; ClearPage suits a
// page about to be written again, such as a freed monitor metadata
// page the next create reuses.
func (m *Phys) ClearPage(addr uint64) error {
	if err := m.checkRange(addr, 1); err != nil {
		return err
	}
	base := addr &^ uint64(PageMask)
	m.noteWrite(base, PageSize)
	if p := m.pages[base>>PageBits].Load(); p != nil {
		*p = [PageSize]byte{}
	}
	return nil
}

// CopyPage copies the page at src over the page at dst; both addresses
// must be page-aligned. Like WriteBytes it refuses a copy-on-write
// frozen destination, writing nothing, and fires the code-write hook
// for a marked one. It moves the page once: a materialized destination
// is overwritten in place, so a Window on it reads the copy, and an
// unmaterialized one is backed by a recycled or new page filled
// straight from the source, with no zero fill first. A source that was
// never materialized reads as zero, and so does the destination after:
// it is dropped like a ZeroRange drops it.
func (m *Phys) CopyPage(dst, src uint64) error {
	for _, a := range [2]uint64{dst, src} {
		if a&PageMask != 0 {
			return fmt.Errorf("%w: page copy at %#x", ErrUnaligned, a)
		}
		if err := m.checkRange(a, PageSize); err != nil {
			return err
		}
	}
	if m.IsCOW(dst) {
		return fmt.Errorf("%w: %#x", ErrCOWProtected, dst)
	}
	sp := m.pages[src>>PageBits].Load()
	if sp == nil {
		return m.ZeroRange(dst, PageSize)
	}
	m.noteWrite(dst, PageSize)
	if dp := m.pages[dst>>PageBits].Load(); dp != nil {
		*dp = *sp
		return nil
	}
	p := m.recycled()
	if p == nil {
		p = new([PageSize]byte)
	}
	*p = *sp
	if q := m.install(dst>>PageBits, p); q != p {
		*q = *sp // another hart materialized dst first: copy into its page
	}
	return nil
}

// Window is a last-page pointer cache in front of a Phys: the common
// same-page access skips the page-table lookup entirely. Its accessors
// are unchecked — LoadFast's caller contract below — and exist for the
// machine's fast path, whose results the fast-vs-reference equivalence
// tests hold to Phys.Load/Store's. A Window is single-consumer state
// (one per core per traffic class) and is invalidated automatically
// when ZeroRange may have de-materialized its page (see ZeroRange for
// why a recycled page is never served under a current generation).
type Window struct {
	m    *Phys
	ppn  uint64
	page *[PageSize]byte
	gen  uint64
}

// Reset points the window at a memory and drops any cached page.
func (w *Window) Reset(m *Phys) {
	w.m = m
	w.page = nil
}

// refill re-validates the window after a miss or a ZeroRange. The
// accessors open-code the hit check (one call frame per access, as the
// interpreter's hot loop requires); the zeroGen load is atomic, which
// is a plain load on the host ISAs we target.
func (w *Window) refill(ppn uint64) *[PageSize]byte {
	gen := w.m.zeroGen.Load()
	p := w.m.page(ppn)
	w.ppn, w.page, w.gen = ppn, p, gen
	return p
}

// LoadFast is Phys.Load without the width/alignment/range checks, for
// callers that can prove them: the machine's translated fast path only
// produces naturally-aligned accesses of ISA widths to physical
// addresses its isolation check already bounded.
func (w *Window) LoadFast(addr uint64, width int) uint64 {
	ppn := addr >> PageBits
	p := w.page
	if p == nil || w.ppn != ppn || w.gen != w.m.zeroGen.Load() {
		p = w.refill(ppn)
	}
	return LoadFrom(p, addr&PageMask, width)
}

// Load64 is LoadFast specialized to the 8-byte width — the dominant
// access on the block engine's hot path — shaped to inline at the call
// site: the open-coded window hit check and one fixed-width load, with
// the refill outlined.
func (w *Window) Load64(addr uint64) uint64 {
	p := w.page
	if p == nil || w.ppn != addr>>PageBits || w.gen != w.m.zeroGen.Load() {
		p = w.refill(addr >> PageBits)
	}
	return binary.LittleEndian.Uint64(p[addr&PageMask&^uint64(7):])
}

// StoreFast is Phys.Store under LoadFast's caller contract: the
// copy-on-write backstop, the code-write check and the window write in
// one call frame, sharing one page-number computation. cow reports the
// store was refused (a frozen page — the caller raises the access
// fault; nothing was written); hitCode reports the write landed in a
// marked code page and fired the code-write hook. The access is
// naturally aligned, so it never crosses a page and one page's bits
// decide both checks.
func (w *Window) StoreFast(addr uint64, width int, val uint64) (cow, hitCode bool) {
	pg := addr >> PageBits
	bit := uint64(1) << (pg & 63)
	if w.m.cowPages[pg>>6].Load()&bit != 0 {
		return true, false
	}
	if w.m.codePages[pg>>6].Load()&bit != 0 {
		hitCode = w.m.codeWriteHit()
	}
	p := w.page
	if p == nil || w.ppn != pg || w.gen != w.m.zeroGen.Load() {
		p = w.refill(pg)
	}
	StoreTo(p, addr&PageMask, width, val)
	return false, hitCode
}

// Store64 is StoreFast specialized to the 8-byte width: the two
// page-bit checks fold into one OR-ed branch and the write is
// fixed-width, with the refused and marked-page cases left to
// StoreFast. Both bitmaps are still read directly — the OR is a pure
// fast-path fold, not a derived union.
func (w *Window) Store64(addr, val uint64) (cow, hitCode bool) {
	pg := addr >> PageBits
	if (w.m.cowPages[pg>>6].Load()|w.m.codePages[pg>>6].Load())&(1<<(pg&63)) != 0 {
		return w.StoreFast(addr, 8, val)
	}
	p := w.page
	if p == nil || w.ppn != pg || w.gen != w.m.zeroGen.Load() {
		p = w.refill(pg)
	}
	binary.LittleEndian.PutUint64(p[addr&PageMask&^uint64(7):], val)
	return false, false
}

// Writable reports whether a store to addr's page would be neither
// refused (a page frozen copy-on-write) nor flagged (a marked code
// page): the page bits StoreFast and Store64 read before they write.
// A caller that found it true may write the page with StoreTo, which
// reads no page bits, for as long as the ordering of its writes after
// this check is one the other harts may observe.
func (w *Window) Writable(addr uint64) bool {
	pg := addr >> PageBits
	return (w.m.cowPages[pg>>6].Load()|w.m.codePages[pg>>6].Load())&(1<<(pg&63)) == 0
}

// Hit returns the page the window holds when that is still addr's page,
// or nil when an access to addr would refill the window: the check every
// accessor makes first. It inlines, so a caller's hit makes no call; a
// caller that missed takes the page from Page, and reads or writes it
// with LoadFrom or StoreTo, under LoadFast's caller contract.
func (w *Window) Hit(addr uint64) *[PageSize]byte {
	if p := w.page; p != nil && w.ppn == addr>>PageBits && w.gen == w.m.zeroGen.Load() {
		return p
	}
	return nil
}

// Page refills the window with addr's page and returns it: the miss
// path of Hit.
func (w *Window) Page(addr uint64) *[PageSize]byte { return w.refill(addr >> PageBits) }
