// Package sm implements Sanctorum, the security monitor of the paper:
// a small, trusted, machine-mode component that verifies the untrusted
// OS's resource-management decisions against a security state machine
// and performs the privileged state changes itself. The monitor is not
// a kernel — it makes no allocation decisions — it only refuses unsafe
// ones (paper §V).
//
// The monitor registers itself as the simulated machine's firmware, so
// every trap and interrupt on any core reaches it before any untrusted
// software, exactly as in the paper's Fig 1. All untrusted software
// speaks one call ABI (internal/sm/api): enclaves reach it through the
// ECALL instruction and the trap path (trap.go); the untrusted OS —
// host Go code standing in for S-mode — submits the same api.Request
// values through Monitor.Dispatch or DispatchBatch, normally via the
// smcall client. Both entries land in the single routing table in
// dispatch.go, where the per-caller-domain authorization lives.
//
// # Concurrency model (paper §V-A)
//
// The monitor is built for many harts calling it at once. There is no
// global monitor lock; instead:
//
//   - Every object — enclave, thread, snapshot, ring, grant, DRAM
//     region, core slot — carries its own transaction lock, acquired
//     with TryLock. A call that cannot take a lock fails with
//     api.ErrRetry ("the SM fails transactions in case of a concurrent
//     operation") without having changed any state; callers retry.
//   - The object registry — one map from metadata page to enclave,
//     thread, snapshot, ring or grant — and each enclave's links to the
//     rings and grants naming it sit behind objMu, a reader/writer lock
//     held only for map and list operations, never while waiting for
//     another hart. One generic lookup fetches an object, TryLocks it
//     and re-checks its dead flag.
//   - The OS-owned region set is a single atomic bitmap (osBitmap),
//     updated by whichever transaction moves a region and read without
//     locks by the DMA policy and ownership checks.
//   - Cross-core state (TLB shootdowns, L1 flushes, per-core view
//     refreshes) moves through the machine's inter-processor mailboxes:
//     the monitor posts IPIs that target harts acknowledge at
//     instruction boundaries; requests to idle harts execute
//     synchronously on the poster. A ring wake changes no core's
//     state, so it is no IPI: the monitor calls the OS's sink directly
//     once the ring lock is released. Blocking lock acquisitions
//     (stopThread's AEX save) never nest and never wait on IPI
//     acknowledgments, which keeps the monitor deadlock-free; see
//     DESIGN.md §5 for the full discipline.
package sm

import (
	"fmt"
	"sync"
	"sync/atomic"

	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/sm/boot"
)

// Platform abstracts the isolation backend (§VII): the monitor's logic
// is identical for Sanctum and Keystone; only how a core is confined to
// a protection domain's regions differs. A platform only programs cores
// from the region sets it is handed: the monitor keeps all region
// state, and does the scrubbing, cache flushes and TLB shootdowns a
// region change needs itself (regions.go).
type Platform interface {
	// Kind identifies the backend.
	Kind() machine.IsolationKind
	// ApplyOSView programs a core for untrusted OS/process execution:
	// no enclave state, OS-owned regions accessible. Called with the
	// target core quiescent (boot, or the core's own trap context).
	ApplyOSView(c *machine.Core, osRegions dram.Bitmap) error
	// ApplyEnclaveView programs a core to run an enclave thread. Called
	// with the target core quiescent.
	ApplyEnclaveView(c *machine.Core, view EnclaveView) error
	// RefreshRegions reprograms a core's region sets after a region
	// transition without otherwise disturbing it: own is the access set
	// of the enclave the core runs (empty on an OS core), os the
	// OS-owned set. The monitor delivers it via the core's IPI mailbox.
	RefreshRegions(c *machine.Core, own, os dram.Bitmap) error
	// Expresses reports whether the platform can program an OS view of
	// osRegions (Keystone's PMP has a fixed number of entries). An
	// enclave view opens the enclave's regions on top of the OS set, so
	// it fits whenever the OS view does; the monitor refuses any
	// transition that would leave an OS set the platform cannot
	// express, and no view it programs fails.
	Expresses(osRegions dram.Bitmap) bool
}

// EnclaveView is the per-core state describing a running enclave.
type EnclaveView struct {
	RootPPN   uint64      // enclave private page-table root
	EvBase    uint64      // enclave virtual range base
	EvMask    uint64      // enclave virtual range mask
	Regions   dram.Bitmap // enclave-owned DRAM regions
	OSRegions dram.Bitmap // regions the OS currently owns (shared access)
}

// Config configures the monitor at boot.
type Config struct {
	Machine  *machine.Machine
	Platform Platform
	Identity *boot.Identity
	// SMRegions are the DRAM regions holding the monitor image and its
	// static state; they belong to the SM domain from boot onward.
	SMRegions []int
	// SigningEnclave is the expected measurement of the signing enclave
	// (§VI-C), hard-coded into the monitor at build/boot time.
	SigningEnclave [32]byte
}

// Monitor is the security monitor instance for one machine.
type Monitor struct {
	machine *machine.Machine
	plat    Platform
	id      *boot.Identity

	signingMeasurement [32]byte

	// objMu guards the object registry, the metadata regions and every
	// enclave's links; it is held only across map and list operations.
	// The objects themselves carry their own transaction locks
	// (per-object header, per-region, per-core-slot), taken with TryLock
	// so transactions fail with ErrRetry instead of blocking (§V-A).
	objMu   sync.RWMutex
	metaRgn map[int]bool      // SM regions usable for metadata
	objects map[uint64]object // every live object, by its metadata page

	regions []regionMeta
	cores   []coreSlot

	// wakeSink is the OS's park/wake notification handler (SetWakeSink);
	// a wake calls it directly on the sending goroutine (ring.go).
	wakeSink atomic.Value

	// osBitmap is the live set of OS-owned regions (state==Owned &&
	// owner==DomainOS), maintained atomically by region transactions so
	// the DMA filter and ownership checks read it without locking.
	osBitmap atomic.Uint64

	// lockHook is the optional transaction-lock fault hook (fault.go),
	// consulted by tryLock before every TryLock acquisition.
	lockHook lockHookPtr

	// refresh is the view-refresh request posted to the cores, bound
	// once in New so posting builds no closure.
	refresh machine.IPIFunc
}

// lockFault consults the fault hook (fault.go) for one acquisition;
// true means the acquisition must fail spuriously.
func (mon *Monitor) lockFault(kind LockKind, id uint64) bool {
	h := mon.lockHook.Load()
	return h != nil && (*h)(LockPoint{Kind: kind, ID: id})
}

// tryLock is the transaction layer's single TryLock choke point: every
// §V-A transaction-lock acquisition routes through it so the fault
// hook can observe or refuse any acquisition. The fast path with no
// hook installed is one atomic nil check.
func (mon *Monitor) tryLock(mu *sync.Mutex, kind LockKind, id uint64) bool {
	if mon.lockFault(kind, id) {
		return false
	}
	return mu.TryLock()
}

// coreSlot tracks which protection domain a core currently executes.
// Its lock is the per-core transaction lock of §V-A: enter/exit
// transactions and trap dispatch take it briefly; it is never held
// while waiting on another hart.
type coreSlot struct {
	mu    sync.Mutex
	owner uint64      // api.DomainOS or an eid
	tid   uint64      // running thread when owner is an enclave
	call  callContext // enclaveCall's context for this core's ECALL
}

// New boots the monitor on a machine: claims the SM's own regions,
// assigns every other region to the untrusted OS, installs the DMA
// policy and the OS view on every core, and registers the monitor as
// the machine's firmware.
func New(cfg Config) (*Monitor, error) {
	if cfg.Machine == nil || cfg.Platform == nil || cfg.Identity == nil {
		return nil, fmt.Errorf("sm: incomplete configuration")
	}
	if cfg.Platform.Kind() != cfg.Machine.Kind {
		return nil, fmt.Errorf("sm: platform kind %v does not match machine %v",
			cfg.Platform.Kind(), cfg.Machine.Kind)
	}
	mon := &Monitor{
		machine:            cfg.Machine,
		plat:               cfg.Platform,
		id:                 cfg.Identity,
		signingMeasurement: cfg.SigningEnclave,
		regions:            make([]regionMeta, cfg.Machine.DRAM.RegionCount),
		metaRgn:            make(map[int]bool),
		objects:            make(map[uint64]object),
		cores:              make([]coreSlot, len(cfg.Machine.Cores)),
	}
	for i := range mon.regions {
		mon.regions[i] = regionMeta{state: RegionOwned, owner: api.DomainOS}
	}
	for _, r := range cfg.SMRegions {
		if r < 0 || r >= len(mon.regions) {
			return nil, fmt.Errorf("sm: SM region %d out of range", r)
		}
		mon.regions[r] = regionMeta{state: RegionOwned, owner: api.DomainSM}
	}
	for i := range mon.cores {
		mon.cores[i].owner = api.DomainOS
	}
	mon.refresh = mon.refreshView
	var osBitmap dram.Bitmap
	for r := range mon.regions {
		if mon.regions[r].owner == api.DomainOS {
			osBitmap = osBitmap.Set(r)
		}
	}
	mon.osBitmap.Store(uint64(osBitmap))
	for _, c := range cfg.Machine.Cores {
		if err := cfg.Platform.ApplyOSView(c, osBitmap); err != nil {
			return nil, fmt.Errorf("sm: programming core %d: %w", c.ID, err)
		}
	}
	// The DMA filter (§IV-B1) is installed exactly once and reads the
	// live bitmap, so region transitions need not republish it and
	// concurrent DMA checks are race-free.
	layout := cfg.Machine.DRAM
	cfg.Machine.DMAAllowed = func(pa, n uint64) bool {
		return dram.Bitmap(mon.osBitmap.Load()).ContainsRange(layout, pa, n)
	}
	cfg.Machine.Firmware = mon
	return mon, nil
}

// Identity returns the monitor's boot identity (public parts are also
// available through GetField).
func (mon *Monitor) Identity() *boot.Identity { return mon.id }

// osRegions returns the live bitmap of OS-owned regions.
func (mon *Monitor) osRegions() dram.Bitmap {
	return dram.Bitmap(mon.osBitmap.Load())
}

// leaveOS removes region r from the live OS-owned bitmap, or reports
// false, changing nothing, when the platform could not express the OS
// view without r (PMP entry exhaustion on Keystone). The
// compare-and-swap keeps two transactions that shrink the set on
// different regions from passing the check jointly. Called by region
// transactions while holding the region's lock, before their first
// mutation.
func (mon *Monitor) leaveOS(r int) bool {
	for {
		old := mon.osBitmap.Load()
		next := old &^ (1 << uint(r))
		if !mon.plat.Expresses(dram.Bitmap(next)) {
			return false
		}
		if mon.osBitmap.CompareAndSwap(old, next) {
			return true
		}
	}
}

// refreshViews pushes the live region sets to every core through its
// IPI mailbox: running harts pick the update up at their next
// instruction boundary, idle harts are programmed synchronously on the
// calling goroutine, and a hart refreshing itself from a trap handler
// applies it at the boundary right after the trap returns. Called after
// any transition that changes the OS-owned set or an enclave's access
// set; the DMA policy needs no republish (it reads the live bitmap).
// It does not wait for acknowledgments: its posters hold region or
// enclave locks a running hart may be trying for.
//
// The sets are read inside the posted request — at apply time, on the
// target hart — not snapshotted at post time: two region transactions
// on different regions can post concurrently, and FIFO mailbox order
// need not match their update order, so a post-time snapshot could
// finish with a stale view installed. Reading live means the last
// applied request always reflects every update that preceded it.
func (mon *Monitor) refreshViews() {
	mon.machine.Broadcast(machine.NoHart, false, mon.refresh, 0, 0, 0)
}

// refreshView is the posted request: it installs the live OS-owned set
// on core c and, when c runs an enclave, that enclave's live access
// set, so a region the enclave blocked leaves its view at once. It runs
// on c's own hart, or on the poster's goroutine when c is idle — which
// may hold the enclave's lock, so the access set is read atomically,
// like the OS set. Core c's run ownership keeps its slot from changing
// underneath.
func (mon *Monitor) refreshView(c *machine.Core, _, _, _ uint64) {
	var own dram.Bitmap
	if owner := mon.readSlot(c.ID).owner; owner != api.DomainOS {
		if e, found := get[*Enclave](mon, owner); found {
			own = e.accessRegions()
		}
	}
	// Cannot fail: leaveOS keeps every OS set expressible, and every
	// view a core holds reaches at least the OS set.
	_ = mon.plat.RefreshRegions(c, own, mon.osRegions())
}

// objHeader is what every monitor object — enclave, thread, snapshot,
// ring, grant — embeds: its §V-A transaction lock, taken with TryLock,
// and its dead flag. Unregistering sets dead under the lock, and every
// lookup re-checks it (a grant's revoke also sets it transiently, see
// bulk.go). An object's id is its metadata page: a page inside an
// SM-owned metadata region (§V-C), which makes ids unforgeable names
// for SM-private state.
type objHeader struct {
	mu   sync.Mutex
	dead atomic.Bool
}

func (h *objHeader) hdr() *objHeader { return h }

// object is an entry of the registry.
type object interface{ hdr() *objHeader }

// metaPageFree reports whether pa can name a new object: page-aligned,
// inside a metadata region, and unused. Caller holds objMu.
func (mon *Monitor) metaPageFree(pa uint64) bool {
	r := mon.machine.DRAM.RegionOf(pa)
	return pa&mem.PageMask == 0 && r >= 0 && mon.metaRgn[r] && mon.objects[pa] == nil
}

// register enters o under id, claiming the metadata page; false when
// the page cannot name a new object. Caller holds objMu for writing.
func (mon *Monitor) register(id uint64, o object) bool {
	if !mon.metaPageFree(id) {
		return false
	}
	mon.objects[id] = o
	return true
}

// unregister marks the object dead, frees its metadata page and zeroes
// it in place, for the next object it names. Caller holds objMu for
// writing and the object's lock.
func (mon *Monitor) unregister(id uint64) {
	mon.objects[id].hdr().dead.Store(true)
	delete(mon.objects, id)
	mon.machine.Mem.ClearPage(id)
}

// get fetches the object of type T named id without locking it: false
// for an unknown id or one naming another kind.
func get[T object](mon *Monitor, id uint64) (T, bool) {
	mon.objMu.RLock()
	o, found := mon.objects[id].(T)
	mon.objMu.RUnlock()
	return o, found
}

// lookup fetches the object of type T named id and takes its
// transaction lock with the given lock class: an unknown id is
// ErrInvalidValue and contention ErrRetry (§V-A). The dead re-check
// closes the lookup/free race: a hart that fetched the pointer before
// a concurrent delete unregistered it must not operate on the orphaned
// object — a ring could attach to a deleted enclave and survive into a
// recreated one under the same eid, and a clone could fork from a
// released snapshot whose thawed pages are writable again.
func lookup[T object](mon *Monitor, kind LockKind, id uint64) (T, api.Error) {
	o, found := get[T](mon, id)
	var none T
	if !found {
		return none, api.ErrInvalidValue
	}
	h := o.hdr()
	if !mon.tryLock(&h.mu, kind, id) {
		return none, api.ErrRetry
	}
	if h.dead.Load() {
		h.mu.Unlock()
		return none, api.ErrInvalidValue
	}
	return o, api.OK
}
