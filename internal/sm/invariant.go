package sm

// Shared invariant suite (DESIGN.md §10). CaptureState copies every
// piece of monitor state a refused call must leave untouched into a
// plain-data StateSnapshot, and Monitor.CheckInvariants validates the
// global consistency conditions the lifecycle state machine promises:
// metadata-page accounting, region-ownership partition, refcount sums,
// the no-writable-while-COW rule, ring waiter liveness, grant endpoint
// liveness and in-flight accounting, and the thread/enclave/core and
// pending-region cross-references. One suite serves three consumers —
// dispatch_test's error-leaves-state-untouched sweeps, the internal/mc
// interleaving explorer, and the adversary battery — replacing the
// ad-hoc per-test copies the dispatch fuzz harness grew.
//
// Both entry points require a quiescent monitor: no hart is mutating
// monitor state and no core is mid-run. Each object's lock is taken
// opportunistically while copying; a lock a contention test holds (to
// simulate "another hart" pinning a transaction) is skipped and the
// object read directly — the holder is, by the quiescence contract,
// not writing.

import (
	"fmt"
	"maps"
	"reflect"
	"sort"
	"sync"

	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/sm/api"
)

// EnclaveShot is one enclave's invariant-relevant state.
type EnclaveShot struct {
	State       EnclaveState
	Regions     dram.Bitmap
	Pending     dram.Bitmap
	Borrowed    dram.Bitmap
	RootPPN     uint64
	Measurement [32]byte
	Running     int
	CloneOf     uint64
	SnapID      uint64 // live snapshot frozen over this template (0 = none)
	LoadCursor  uint64 // next physical page number the enclave may take
	Threads     []uint64
	Mapped      []uint64
	COW         map[uint64]uint64 // va -> frozen ppn still aliased
	ROAliases   []uint64
	Mailboxes   [api.MailboxesPerEnclave]Mailbox
	Links       []uint64 // ids of its linked rings and grants, in list order
}

// ThreadShot is one thread's invariant-relevant state.
type ThreadShot struct {
	State    ThreadState
	Owner    uint64
	EntryPC  uint64
	EntrySP  uint64
	CoreID   int
	AEXValid bool
}

// SnapshotShot is one snapshot's invariant-relevant state.
type SnapshotShot struct {
	TemplateID uint64
	Meas       [32]byte
	Regions    dram.Bitmap
	Pages      int
	Clones     int
}

// RingShot is one ring's invariant-relevant state.
type RingShot struct {
	Producer  uint64
	Consumer  uint64
	Capacity  int
	Count     int
	WaiterEID uint64
	WaiterTID uint64
	// Queued counts the scatter-gather descriptor messages queued per
	// grant id (nil when the ring holds none).
	Queued map[uint64]int
}

// GrantShot is one bulk grant's invariant-relevant state.
type GrantShot struct {
	Producer uint64
	Consumer uint64
	BasePA   uint64
	Pages    uint64
	InFlight int64
	// Mapped is each enclave endpoint's bulk_map VA (nil when none).
	Mapped map[uint64]uint64
}

// RegionShot is one DRAM region's state and owner.
type RegionShot struct {
	State RegionState
	Owner uint64
}

// CoreShot is one core slot's scheduled domain.
type CoreShot struct {
	Owner uint64
	TID   uint64
}

// StateSnapshot is a moment-in-time copy of the monitor's entire
// security state machine, in plain comparable data.
type StateSnapshot struct {
	Enclaves  map[uint64]EnclaveShot
	Threads   map[uint64]ThreadShot
	Snapshots map[uint64]SnapshotShot
	Rings     map[uint64]RingShot
	Grants    map[uint64]GrantShot
	MetaPages []uint64
	Regions   []RegionShot
	Cores     []CoreShot
	OSBitmap  uint64
	PageRefs  uint64
}

func sortedU64[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// snapLock acquires mu if it is free and returns the matching release;
// a held lock (a pinned contention-test transaction) is left alone and
// the caller reads the quiescent object directly.
func snapLock(mu *sync.Mutex) func() {
	if mu.TryLock() {
		return mu.Unlock
	}
	return func() {}
}

// registered copies the object registry under objMu, so each object
// can then be read under its own lock — never both at once
// (deleteEnclave holds object locks while taking objMu, so nesting the
// other way could deadlock).
func (mon *Monitor) registered() map[uint64]object {
	mon.objMu.RLock()
	defer mon.objMu.RUnlock()
	return maps.Clone(mon.objects)
}

// CaptureState snapshots the monitor's full state (see the package
// comment above for the quiescence contract).
func (mon *Monitor) CaptureState() *StateSnapshot {
	s := &StateSnapshot{
		Enclaves:  make(map[uint64]EnclaveShot),
		Threads:   make(map[uint64]ThreadShot),
		Snapshots: make(map[uint64]SnapshotShot),
		Rings:     make(map[uint64]RingShot),
		Grants:    make(map[uint64]GrantShot),
	}
	objects := mon.registered()
	s.MetaPages = sortedU64(objects)
	for id, o := range objects {
		unlock := snapLock(&o.hdr().mu)
		switch o := o.(type) {
		case *Enclave:
			shot := captureEnclave(o)
			mon.objMu.RLock()
			for _, l := range o.links {
				shot.Links = append(shot.Links, l.ends().ID)
			}
			mon.objMu.RUnlock()
			s.Enclaves[id] = shot
		case *Thread:
			s.Threads[id] = ThreadShot{State: o.State, Owner: o.Owner,
				EntryPC: o.EntryPC, EntrySP: o.EntrySP, CoreID: o.CoreID, AEXValid: o.AEXValid}
		case *Snapshot:
			s.Snapshots[id] = SnapshotShot{TemplateID: o.TemplateID, Meas: o.Meas,
				Regions: o.Regions, Pages: len(o.table) - o.shared, Clones: o.clones}
		case *Ring:
			shot := RingShot{Producer: o.Producer, Consumer: o.Consumer,
				Capacity: len(o.slots), Count: o.count,
				WaiterEID: o.waiterEID, WaiterTID: o.waiterTID}
			for i := 0; i < o.count; i++ {
				if gid := o.slots[(o.head+i)%len(o.slots)].grant; gid != 0 {
					if shot.Queued == nil {
						shot.Queued = make(map[uint64]int)
					}
					shot.Queued[gid]++
				}
			}
			s.Rings[id] = shot
		case *Grant:
			shot := GrantShot{Producer: o.Producer, Consumer: o.Consumer,
				BasePA: o.BasePA, Pages: o.Pages, InFlight: o.inflight.Load()}
			if len(o.maps) > 0 {
				shot.Mapped = maps.Clone(o.maps)
			}
			s.Grants[id] = shot
		}
		unlock()
	}
	for i := range mon.regions {
		rm := &mon.regions[i]
		unlock := snapLock(&rm.mu)
		s.Regions = append(s.Regions, RegionShot{State: rm.state, Owner: rm.owner})
		unlock()
	}
	for i := range mon.cores {
		slot := &mon.cores[i]
		unlock := snapLock(&slot.mu)
		s.Cores = append(s.Cores, CoreShot{Owner: slot.owner, TID: slot.tid})
		unlock()
	}
	s.OSBitmap = mon.osBitmap.Load()
	s.PageRefs = mon.machine.Mem.TotalRefs()
	return s
}

// captureEnclave copies one enclave's state; the caller holds its lock
// (or the monitor is quiescent). A clone's mappings, copy-on-write
// aliases and read-only aliases are read off its snapshot's table and
// its cow bitmap, in the shape an enclave-owned record would have.
func captureEnclave(e *Enclave) EnclaveShot {
	shot := EnclaveShot{
		State: e.State, Regions: e.Regions, Pending: e.Pending, Borrowed: e.Borrowed,
		RootPPN: e.RootPPN, Measurement: e.Measurement,
		Running: e.running, CloneOf: e.CloneOf,
		LoadCursor: e.loadCursor, Mailboxes: e.Mailboxes,
		Mapped: sortedU64(e.mapped),
	}
	for _, t := range e.Threads {
		shot.Threads = append(shot.Threads, t.ID)
	}
	sort.Slice(shot.Threads, func(i, j int) bool { return shot.Threads[i] < shot.Threads[j] })
	if e.snap == nil {
		return shot
	}
	clone := e.CloneOf != 0
	if !clone {
		shot.SnapID = e.snap.ID
	}
	for i, pg := range e.snap.table {
		if clone {
			shot.Mapped = append(shot.Mapped, pg.va)
		}
		switch {
		case e.aliasesCOW(i):
			if shot.COW == nil {
				shot.COW = make(map[uint64]uint64)
			}
			shot.COW[pg.va] = pg.ppn
		case clone && e.InEvrange(pg.va) && pg.perms&pt.W == 0:
			shot.ROAliases = append(shot.ROAliases, pg.ppn)
		}
	}
	sort.Slice(shot.ROAliases, func(i, j int) bool { return shot.ROAliases[i] < shot.ROAliases[j] })
	return shot
}

// Equal reports whether two snapshots are bit-identical.
func (s *StateSnapshot) Equal(o *StateSnapshot) bool { return reflect.DeepEqual(s, o) }

// Diff names the first top-level sections where two snapshots differ,
// for failure messages.
func (s *StateSnapshot) Diff(o *StateSnapshot) string {
	av, bv := reflect.ValueOf(*s), reflect.ValueOf(*o)
	t := av.Type()
	var out []string
	for i := 0; i < t.NumField(); i++ {
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			out = append(out, fmt.Sprintf("%s: %+v != %+v",
				t.Field(i).Name, av.Field(i).Interface(), bv.Field(i).Interface()))
		}
	}
	if len(out) == 0 {
		return "no difference"
	}
	return fmt.Sprintf("%d field(s) differ: %v", len(out), out)
}

// CheckInvariants validates the monitor's global consistency
// conditions against a fresh capture, returning the first violation
// found (nil when all hold). Same quiescence contract as CaptureState.
func (mon *Monitor) CheckInvariants() error {
	s := mon.CaptureState()

	// Metadata accounting: the registry's page set is exactly the union
	// of the five object-id spaces, each page SM-owned.
	ids := make(map[uint64]string)
	claim := func(id uint64, kind string) error {
		if prev, dup := ids[id]; dup {
			return fmt.Errorf("metadata page %#x claimed by both %s and %s", id, prev, kind)
		}
		ids[id] = kind
		return nil
	}
	for id := range s.Enclaves {
		if err := claim(id, "enclave"); err != nil {
			return err
		}
	}
	for id := range s.Threads {
		if err := claim(id, "thread"); err != nil {
			return err
		}
	}
	for id := range s.Snapshots {
		if err := claim(id, "snapshot"); err != nil {
			return err
		}
	}
	for id := range s.Rings {
		if err := claim(id, "ring"); err != nil {
			return err
		}
	}
	for id := range s.Grants {
		if err := claim(id, "grant"); err != nil {
			return err
		}
	}
	if len(ids) != len(s.MetaPages) {
		return fmt.Errorf("metadata pages %d != live objects %d (leak or orphan)",
			len(s.MetaPages), len(ids))
	}
	layout := mon.machine.DRAM
	for _, pa := range s.MetaPages {
		kind, ok := ids[pa]
		if !ok {
			return fmt.Errorf("metadata page %#x has no owning object", pa)
		}
		r := layout.RegionOf(pa)
		if pa&mem.PageMask != 0 || r < 0 || s.Regions[r].Owner != api.DomainSM {
			return fmt.Errorf("%s metadata page %#x not in SM-owned memory", kind, pa)
		}
	}

	// Region partition: the live OS bitmap matches the locked states,
	// owned-by-enclave regions and enclave bitmaps cross-reference
	// exactly, and pending grants name live enclaves.
	for r, rm := range s.Regions {
		osOwned := rm.State == RegionOwned && rm.Owner == api.DomainOS
		if osOwned != (s.OSBitmap&(1<<uint(r)) != 0) {
			return fmt.Errorf("region %d: osBitmap bit %v but state %v/%#x",
				r, !osOwned, rm.State, rm.Owner)
		}
		if rm.State == RegionBlocked && rm.Owner != api.DomainOS {
			return fmt.Errorf("region %d blocked but owner %#x (must revert to OS)", r, rm.Owner)
		}
		if rm.Owner != api.DomainOS && rm.Owner != api.DomainSM {
			e, live := s.Enclaves[rm.Owner]
			if !live {
				return fmt.Errorf("region %d %v by dead enclave %#x", r, rm.State, rm.Owner)
			}
			if rm.State == RegionOwned && !e.Regions.Has(r) {
				return fmt.Errorf("region %d owned by %#x but not in its bitmap", r, rm.Owner)
			}
			if rm.State == RegionPending && !e.Pending.Has(r) {
				return fmt.Errorf("region %d pending for %#x but not in its pending bitmap", r, rm.Owner)
			}
		}
	}
	for eid, e := range s.Enclaves {
		for _, r := range e.Regions.Regions() {
			if s.Regions[r].State != RegionOwned || s.Regions[r].Owner != eid {
				return fmt.Errorf("enclave %#x claims region %d held as %v/%#x",
					eid, r, s.Regions[r].State, s.Regions[r].Owner)
			}
		}
		for _, r := range e.Pending.Regions() {
			if s.Regions[r].State != RegionPending || s.Regions[r].Owner != eid {
				return fmt.Errorf("enclave %#x lists region %d pending, held as %v/%#x",
					eid, r, s.Regions[r].State, s.Regions[r].Owner)
			}
		}
	}

	// Refcount sum: every physical reference is a snapshot's
	// frozen-page hold, a clone's live alias (COW or read-only), or a
	// grant's pin on its buffer pages.
	var want uint64
	for _, sn := range s.Snapshots {
		want += uint64(sn.Pages)
	}
	for _, e := range s.Enclaves {
		if e.CloneOf != 0 {
			want += uint64(len(e.COW) + len(e.ROAliases))
		}
	}
	for _, g := range s.Grants {
		want += g.Pages
	}
	if s.PageRefs != want {
		return fmt.Errorf("page refcounts %d, want %d (snapshots + clone aliases + grant pins)",
			s.PageRefs, want)
	}

	// Enclave lifecycle, thread cross-references, snapshot linkage.
	for eid, e := range s.Enclaves {
		if e.State != EnclaveLoading && e.State != EnclaveInitialized {
			return fmt.Errorf("enclave %#x in map with state %v", eid, e.State)
		}
		running := 0
		for i, tid := range e.Threads {
			if i > 0 && e.Threads[i-1] == tid { // the capture sorts them
				return fmt.Errorf("enclave %#x lists thread %#x twice", eid, tid)
			}
			t, live := s.Threads[tid]
			if !live {
				return fmt.Errorf("enclave %#x lists dead thread %#x", eid, tid)
			}
			if t.Owner != eid {
				return fmt.Errorf("enclave %#x lists thread %#x in state %v owner %#x",
					eid, tid, t.State, t.Owner)
			}
			if t.State == ThreadRunning {
				running++
			}
		}
		if running != e.Running {
			return fmt.Errorf("enclave %#x running=%d but %d threads on cores", eid, e.Running, running)
		}
		if e.CloneOf != 0 {
			sn, live := s.Snapshots[e.CloneOf]
			if !live {
				return fmt.Errorf("clone %#x of dead snapshot %#x", eid, e.CloneOf)
			}
			if e.Borrowed != sn.Regions {
				return fmt.Errorf("clone %#x borrows %v, snapshot covers %v", eid, e.Borrowed, sn.Regions)
			}
		}
		if e.SnapID != 0 {
			if sn, live := s.Snapshots[e.SnapID]; !live || sn.TemplateID != eid {
				return fmt.Errorf("template %#x names snapshot %#x which does not point back", eid, e.SnapID)
			}
		}
	}
	for tid, t := range s.Threads {
		if (t.State == ThreadAvailable) != (t.Owner == 0) {
			return fmt.Errorf("thread %#x state %v with owner %#x", tid, t.State, t.Owner)
		}
		if t.Owner != 0 {
			e, live := s.Enclaves[t.Owner]
			if !live {
				return fmt.Errorf("thread %#x owned by dead enclave %#x", tid, t.Owner)
			}
			member := false
			for _, m := range e.Threads {
				member = member || m == tid
			}
			if !member {
				return fmt.Errorf("thread %#x %v to %#x but not in its table", tid, t.State, t.Owner)
			}
		}
		if t.State == ThreadRunning {
			if t.CoreID < 0 || t.CoreID >= len(s.Cores) ||
				s.Cores[t.CoreID].Owner != t.Owner || s.Cores[t.CoreID].TID != tid {
				return fmt.Errorf("running thread %#x not scheduled on its core %d", tid, t.CoreID)
			}
		}
	}
	for snapID, sn := range s.Snapshots {
		tpl, live := s.Enclaves[sn.TemplateID]
		if !live || tpl.SnapID != snapID || tpl.CloneOf != 0 {
			return fmt.Errorf("snapshot %#x template %#x broken linkage", snapID, sn.TemplateID)
		}
		if sn.Regions&^tpl.Regions != 0 {
			return fmt.Errorf("snapshot %#x covers regions %v outside template's %v",
				snapID, sn.Regions, tpl.Regions)
		}
		clones := 0
		for _, e := range s.Enclaves {
			if e.CloneOf == snapID {
				clones++
			}
		}
		if clones != sn.Clones {
			return fmt.Errorf("snapshot %#x records %d clones, found %d", snapID, sn.Clones, clones)
		}
	}

	// Rings and grants: endpoints, grant mappers and parked waiters must
	// name live objects, and a registered waiter implies the ring was
	// empty when it parked (every enqueue and wake pops the waiter) — a
	// non-empty ring holding one is a lost wake. A grant's in-flight
	// count is exactly its descriptor messages queued across rings, and
	// queued descriptors name live grants (revoke refuses while any is
	// queued). Each enclave links exactly the live rings and grants
	// naming it, each once, in creation order; a capture carries no
	// creation clock, so the order law it can check is that enclaves
	// sharing links list them in the same order.
	linkAt := make(map[uint64]map[uint64]int) // eid -> link id -> index
	for eid, e := range s.Enclaves {
		at := make(map[uint64]int, len(e.Links))
		for i, id := range e.Links {
			r, ring := s.Rings[id]
			g, grant := s.Grants[id]
			_, dup := at[id]
			if dup || !(ring && (r.Producer == eid || r.Consumer == eid)) &&
				!(grant && (g.Producer == eid || g.Consumer == eid)) {
				return fmt.Errorf("enclave %#x links %#x, not a live ring or grant naming it once", eid, id)
			}
			at[id] = i
		}
		linkAt[eid] = at
	}
	for a := range linkAt {
		for b, bt := range linkAt {
			if a >= b {
				continue
			}
			last := -1
			for _, id := range s.Enclaves[a].Links {
				if j, shared := bt[id]; shared {
					if j < last {
						return fmt.Errorf("enclaves %#x and %#x list their shared links in different orders", a, b)
					}
					last = j
				}
			}
		}
	}
	endpointLive := func(kind string, id, who uint64) error {
		if _, ok := s.Enclaves[who]; who != api.DomainOS && !ok {
			return fmt.Errorf("%s %#x endpoint %#x is dead", kind, id, who)
		}
		if _, ok := linkAt[who][id]; who != api.DomainOS && !ok {
			return fmt.Errorf("%s %#x endpoint %#x does not link it", kind, id, who)
		}
		return nil
	}
	queued := make(map[uint64]int64)
	for id, r := range s.Rings {
		for _, who := range []uint64{r.Producer, r.Consumer} {
			if err := endpointLive("ring", id, who); err != nil {
				return err
			}
		}
		for gid, n := range r.Queued {
			if _, ok := s.Grants[gid]; !ok {
				return fmt.Errorf("ring %#x queues %d descriptors of dead grant %#x", id, n, gid)
			}
			queued[gid] += int64(n)
		}
		if r.WaiterTID != 0 {
			t, live := s.Threads[r.WaiterTID]
			if !live || t.Owner != r.WaiterEID || r.WaiterEID != r.Consumer {
				return fmt.Errorf("ring %#x waiter %#x/%#x is orphaned", id, r.WaiterEID, r.WaiterTID)
			}
			if r.Count > 0 {
				return fmt.Errorf("ring %#x holds %d messages with a registered waiter (lost wake)",
					id, r.Count)
			}
		}
	}
	for id, g := range s.Grants {
		for _, who := range []uint64{g.Producer, g.Consumer} {
			if err := endpointLive("grant", id, who); err != nil {
				return err
			}
		}
		for who := range g.Mapped {
			if who != g.Producer && who != g.Consumer {
				return fmt.Errorf("grant %#x mapped by non-endpoint %#x", id, who)
			}
		}
		if g.InFlight != queued[id] {
			return fmt.Errorf("grant %#x: %d descriptors in flight, %d queued in rings", id, g.InFlight, queued[id])
		}
	}
	for c, slot := range s.Cores {
		if slot.Owner == api.DomainOS {
			if slot.TID != 0 {
				return fmt.Errorf("core %d OS-owned with tid %#x", c, slot.TID)
			}
			continue
		}
		t, live := s.Threads[slot.TID]
		if _, elive := s.Enclaves[slot.Owner]; !elive || !live ||
			t.State != ThreadRunning || t.Owner != slot.Owner || t.CoreID != c {
			return fmt.Errorf("core %d scheduled for %#x/%#x inconsistently", c, slot.Owner, slot.TID)
		}
	}

	return mon.checkPageTables()
}

// checkPageTables walks every enclave's live leaf PTEs to enforce the
// copy-on-write rule: no page is simultaneously writable-by-PTE and
// COW-marked, every recorded COW alias has its W bit cleared and its
// frozen page marked, and snapshot frozen pages are marked while the
// snapshot lives.
func (mon *Monitor) checkPageTables() error {
	var enclaves []*Enclave
	var snapshots []*Snapshot
	for _, o := range mon.registered() {
		switch o := o.(type) {
		case *Enclave:
			enclaves = append(enclaves, o)
		case *Snapshot:
			snapshots = append(snapshots, o)
		}
	}
	for _, e := range enclaves {
		unlock := snapLock(&e.mu)
		shot := captureEnclave(e)
		err := func() error {
			for _, va := range shot.Mapped {
				if !e.InEvrange(va) {
					continue // shared windows map OS pages, never COW
				}
				pteAddr, ok := mon.leafPTEAddr(e, va)
				if !ok {
					continue
				}
				pte, lerr := mon.machine.Mem.Load(pteAddr, 8)
				if lerr != nil || pte&pt.V == 0 {
					continue
				}
				pa := pt.PPNOf(pte) << mem.PageBits
				if pte&pt.W != 0 && mon.machine.Mem.IsCOW(pa) {
					return fmt.Errorf("enclave %#x va %#x: PTE writable on COW-marked page %#x",
						e.ID, va, pa)
				}
				if ppn, frozen := shot.COW[va]; frozen {
					if pte&pt.W != 0 {
						return fmt.Errorf("enclave %#x va %#x: COW alias with W set", e.ID, va)
					}
					if !mon.machine.Mem.IsCOW(ppn << mem.PageBits) {
						return fmt.Errorf("enclave %#x va %#x: frozen page %#x not COW-marked",
							e.ID, va, ppn)
					}
				}
			}
			return nil
		}()
		unlock()
		if err != nil {
			return err
		}
	}
	for _, sn := range snapshots {
		// The table never changes once snapshot_enclave has returned.
		for _, pg := range sn.table {
			if pg.va&sn.EvMask != sn.EvBase {
				continue // shared windows are never frozen
			}
			pa := pg.ppn << mem.PageBits
			if !mon.machine.Mem.IsCOW(pa) {
				return fmt.Errorf("snapshot %#x frozen page %#x lost its COW mark", sn.ID, pa)
			}
			if mon.machine.Mem.PageRefs(pa) == 0 {
				return fmt.Errorf("snapshot %#x frozen page %#x has zero refs", sn.ID, pa)
			}
		}
	}
	return nil
}
