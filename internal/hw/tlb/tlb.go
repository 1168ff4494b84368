// Package tlb models a per-core translation lookaside buffer. Sanctum's
// page-walk invariant guarantees TLB entries conform to the DRAM region
// allocation, which requires a TLB shootdown whenever a region moves to
// a different protection domain (paper §VII-A); FlushFrames implements
// the selective shootdown and Flush the full flush used on core
// cleaning.
//
// The TLB tears down translations only; it knows nothing of the
// machine's decoded-instruction caches. Its generation (Gen) is the one
// signal the machine's fast paths read: it moves exactly when a
// translation leaves the TLB, so a TLB hit cached at one generation is
// still a hit, on the same entry, at that generation.
package tlb

// Entry caches one translation.
type Entry struct {
	VPN   uint64 // virtual page number
	PPN   uint64 // physical page number
	Perms uint64 // leaf PTE flag bits
	Valid bool
}

// TLB is a fully-associative TLB with FIFO replacement. Replacement
// policy is not security-relevant here (the SM flushes on every domain
// switch), so the simplest deterministic policy keeps tests exact.
//
// Lookup is indexed by VPN instead of scanning the entry array, so a
// probe costs O(1) regardless of capacity; the FIFO ring, replacement
// order, and Hits/Misses/Flushes/Shootdown statistics are bit-identical
// to the scanning implementation.
type TLB struct {
	entries []Entry
	index   map[uint64]int // VPN -> slot, valid entries only
	next    int            // FIFO insertion cursor

	// gen advances whenever a translation may have left the TLB: an
	// Insert that replaces its VPN's entry or evicts a valid victim,
	// and every Flush, FlushFrames and FlushPage. A fill into a free
	// slot only adds a translation, so it leaves gen alone. The
	// machine's fast paths compare it to prove that a translation they
	// cached is still resident.
	gen uint64

	// Statistics.
	Hits      uint64
	Misses    uint64
	Flushes   uint64
	Shootdown uint64
}

// New returns a TLB with the given number of entries.
func New(capacity int) *TLB {
	if capacity <= 0 {
		capacity = 1
	}
	return &TLB{
		entries: make([]Entry, capacity),
		index:   make(map[uint64]int, capacity),
		gen:     1,
	}
}

// Capacity returns the number of entries.
func (t *TLB) Capacity() int { return len(t.entries) }

// Gen returns the current translation-set generation. It changes
// whenever a translation may have been removed, so every Lookup that
// hit at one generation hits the same entry while Gen is unchanged.
func (t *TLB) Gen() uint64 { return t.gen }

// Lookup returns the cached translation for vpn, if present.
func (t *TLB) Lookup(vpn uint64) (Entry, bool) {
	if i, ok := t.index[vpn]; ok {
		t.Hits++
		return t.entries[i], true
	}
	t.Misses++
	return Entry{}, false
}

// Probe is Lookup without the statistics: it reports what a Lookup
// would return without being one. The machine uses it to decide, off
// the modeled path, whether a fetch would hit.
func (t *TLB) Probe(vpn uint64) (Entry, bool) {
	if i, ok := t.index[vpn]; ok {
		return t.entries[i], true
	}
	return Entry{}, false
}

// Insert caches a translation, evicting in FIFO order. An existing entry
// for the same VPN is replaced in place. The generation moves only when
// a translation is removed (the VPN's old entry or a valid victim).
func (t *TLB) Insert(e Entry) {
	e.Valid = true
	if i, ok := t.index[e.VPN]; ok {
		t.entries[i] = e
		t.gen++
		return
	}
	victim := t.next
	if old := &t.entries[victim]; old.Valid {
		delete(t.index, old.VPN)
		t.gen++
	}
	t.entries[victim] = e
	t.index[e.VPN] = victim
	t.next = (t.next + 1) % len(t.entries)
}

// Flush invalidates every entry (full flush on core re-allocation).
func (t *TLB) Flush() {
	for i := range t.entries {
		t.entries[i].Valid = false
	}
	clear(t.index)
	t.gen++
	t.Flushes++
}

// FlushPage invalidates the translation for a single virtual page —
// the targeted shootdown of the monitor's copy-on-write fault protocol
// (a clone's leaf PTE just moved to a private copy, so exactly one VPN
// is stale). The generation advances even when the VPN is absent, so
// no translation a core cached can outlive the PTE change that
// motivated the flush. It returns whether an entry was actually
// dropped.
func (t *TLB) FlushPage(vpn uint64) bool {
	invalidated := false
	if i, ok := t.index[vpn]; ok {
		t.entries[i].Valid = false
		delete(t.index, vpn)
		invalidated = true
	}
	t.gen++
	t.Shootdown++
	return invalidated
}

// FlushFrames invalidates every entry translating to a frame in
// [first, first+n): the selective shootdown of a DRAM region leaving a
// protection domain. It returns the number of entries invalidated.
func (t *TLB) FlushFrames(first, n uint64) int {
	k := 0
	for i := range t.entries {
		if e := &t.entries[i]; e.Valid && e.PPN-first < n {
			e.Valid = false
			delete(t.index, e.VPN)
			k++
		}
	}
	t.gen++
	t.Shootdown++
	return k
}

// Live returns the number of valid entries.
func (t *TLB) Live() int { return len(t.index) }
