package cache

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// The LineRef contract: a ref names one way, and TouchFast/TouchFastN
// may hit through it only while that way holds the line a scanning
// Access would hit, with bookkeeping identical to that scan. These tests
// drive refs and a twin cache that takes every access through Access,
// and require the two caches to stay equal way by way. The twin runs the
// same set scan as the cache under test, so a third model checks that
// scan: lruModel, which keeps each set as a recency list.

// lineRefConfigs are a shared cache, a page-coloured one and a 4-way
// one, all small enough that a pool of a few dozen lines conflicts,
// evicts and refills.
var lineRefConfigs = []Config{
	{Sets: 8, Ways: 2, LineBits: 6, HitCycles: 2, MissCycles: 40},
	{Sets: 8, Ways: 2, LineBits: 6, HitCycles: 2, MissCycles: 40, Partitions: 2, PartitionShift: 12},
	{Sets: 4, Ways: 4, LineBits: 6, HitCycles: 2, MissCycles: 40},
}

// lruModel is a set-associative LRU cache written from the definition,
// with no stamps, epochs or ways: each set is the list of its resident
// line addresses, least recently used first. A hit moves its line to
// the end, a miss appends it and, in a full set, evicts the first.
type lruModel struct {
	cfg                     Config
	sets                    [][]uint64
	hits, misses, evictions uint64
}

func newLRUModel(cfg Config) *lruModel {
	return &lruModel{cfg: cfg, sets: make([][]uint64, cfg.Sets)}
}

// setOf is Config's documented set mapping: the line address modulo the
// sets, or on a partitioned cache the partition's first set plus the
// line address modulo the partition's sets.
func (m *lruModel) setOf(line uint64) int {
	if m.cfg.Partitions == 0 {
		return int(line % uint64(m.cfg.Sets))
	}
	per := uint64(m.cfg.Sets / m.cfg.Partitions)
	part := (line << m.cfg.LineBits >> m.cfg.PartitionShift) % uint64(m.cfg.Partitions)
	return int(part*per + line%per)
}

// access reports whether pa hits, updating recency, statistics and,
// on a miss, residency.
func (m *lruModel) access(pa uint64) bool {
	line := pa >> m.cfg.LineBits
	s := m.setOf(line)
	set := m.sets[s]
	if i := slices.Index(set, line); i >= 0 {
		m.sets[s] = append(slices.Delete(set, i, i+1), line)
		m.hits++
		return true
	}
	m.misses++
	if len(set) == m.cfg.Ways {
		set = slices.Delete(set, 0, 1)
		m.evictions++
	}
	m.sets[s] = append(set, line)
	return false
}

// flushRange drops every resident line whose bytes overlap [pa, pa+n),
// clipped at the top of the address space, and returns the count.
func (m *lruModel) flushRange(pa, n uint64) int {
	if n == 0 {
		return 0
	}
	end := pa + n - 1
	if end < pa {
		end = ^uint64(0)
	}
	first, last := pa>>m.cfg.LineBits, end>>m.cfg.LineBits
	dropped := 0
	for s, set := range m.sets {
		kept := slices.DeleteFunc(set, func(l uint64) bool { return l >= first && l <= last })
		dropped += len(set) - len(kept)
		m.sets[s] = kept
	}
	return dropped
}

// flushAll empties every set.
func (m *lruModel) flushAll() {
	for s := range m.sets {
		m.sets[s] = m.sets[s][:0]
	}
}

// check requires c to agree with the model after operation op: the same
// statistics, and in every set the same resident lines in the same
// recency order (c's resident ways sorted by LRU stamp).
func (m *lruModel) check(t *testing.T, c *Cache, op int) {
	t.Helper()
	if c.Hits != m.hits || c.Misses != m.misses || c.Evictions != m.evictions {
		t.Fatalf("%+v: op %d: statistics %d/%d/%d, LRU model %d/%d/%d", m.cfg, op,
			c.Hits, c.Misses, c.Evictions, m.hits, m.misses, m.evictions)
	}
	ways := c.Snapshot()
	for s, want := range m.sets {
		var res []LineState
		for _, l := range ways[s*m.cfg.Ways : (s+1)*m.cfg.Ways] {
			if l.Resident {
				res = append(res, l)
			}
		}
		slices.SortFunc(res, func(a, b LineState) int { return cmp.Compare(a.LRU, b.LRU) })
		got := make([]uint64, len(res))
		for i, l := range res {
			got[i] = l.Tag
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%+v: op %d: set %d holds %#x by recency, LRU model %#x", m.cfg, op, s, got, want)
		}
	}
}

// runLineRefOps decodes data, four bytes per operation, into Access,
// AccessRef, TouchFast and TouchFastN calls through three refs on one
// cache, interleaved with FlushAll and FlushRange on both caches and the
// LRU model. A failed touch falls back to AccessRef, as the machine's
// callers do. After every operation the caches' ways and statistics
// must be equal, each cache's Live() must equal its resident ways, a
// touch may hit only when the twin's Probe finds the line, and the
// cache must agree with the LRU model on every hit and miss, on its
// statistics and on each set's lines in recency order.
func runLineRefOps(t *testing.T, cfg Config, data []byte) {
	t.Helper()
	c, twin, model := New(cfg), New(cfg), newLRUModel(cfg)
	var refs [3]LineRef
	var armed [3]uint64 // the address each ref was last pointed at
	size := uint64(1) << cfg.LineBits
	// access is one scanning access on both caches through ref.
	access := func(pa uint64, ref *LineRef) {
		hit, cyc := c.AccessRef(pa, ref)
		twinHit, twinCyc := twin.Access(pa)
		if hit != twinHit || cyc != twinCyc {
			t.Fatalf("%+v: AccessRef(%#x) = %v/%d, twin Access %v/%d", cfg, pa, hit, cyc, twinHit, twinCyc)
		}
		if modelHit := model.access(pa); hit != modelHit {
			t.Fatalf("%+v: AccessRef(%#x) hit %v, LRU model %v", cfg, pa, hit, modelHit)
		}
	}
	// touched records a touch that hit through its ref: the model must
	// hit too.
	touched := func(pa uint64) {
		if !model.access(pa) {
			t.Fatalf("%+v: a touch of %#x hit a line the LRU model does not hold", cfg, pa)
		}
	}
	for i := 0; i+4 <= len(data); i += 4 {
		op, b1, b2, b3 := data[i]%32, data[i+1], data[i+2], data[i+3]
		k := int(b1&0x7f) % len(refs)
		// 48 lines five lines apart cover every set and, on the coloured
		// cache, both partitions; a set bit of b1 aims at the ref's own
		// line instead, so touches mostly test a ref that once held pa.
		pa := uint64(b2%48)*5*size + uint64(b3)%size
		if b1&0x80 != 0 {
			pa = armed[k]&^(size-1) + uint64(b3)%size
		}
		switch {
		case op < 10:
			hit, cyc := c.Access(pa)
			twinHit, twinCyc := twin.Access(pa)
			if hit != twinHit || cyc != twinCyc {
				t.Fatalf("%+v: Access(%#x) = %v/%d, twin %v/%d", cfg, pa, hit, cyc, twinHit, twinCyc)
			}
			if modelHit := model.access(pa); hit != modelHit {
				t.Fatalf("%+v: Access(%#x) hit %v, LRU model %v", cfg, pa, hit, modelHit)
			}
		case op < 16:
			access(pa, &refs[k])
			armed[k] = pa
		case op < 24:
			resident := twin.Probe(pa)
			if c.TouchFast(pa, &refs[k]) {
				if !resident {
					t.Fatalf("%+v: TouchFast(%#x) hit a line the twin does not hold", cfg, pa)
				}
				twin.Access(pa)
				touched(pa)
			} else {
				access(pa, &refs[k])
				armed[k] = pa
			}
		case op < 29:
			n := uint64(b1>>2&3) + 1
			resident := twin.Probe(pa)
			if c.TouchFastN(pa, &refs[k], n) {
				if !resident {
					t.Fatalf("%+v: TouchFastN(%#x, %d) hit a line the twin does not hold", cfg, pa, n)
				}
				for j := uint64(0); j < n; j++ {
					twin.Access(pa)
					touched(pa)
				}
			} else {
				for j := uint64(0); j < n; j++ {
					if !c.TouchFast(pa, &refs[k]) {
						access(pa, &refs[k])
						continue
					}
					twin.Access(pa)
					touched(pa)
				}
				armed[k] = pa
			}
		case op == 29:
			c.FlushAll()
			twin.FlushAll()
			model.flushAll()
		default:
			n := uint64(b1>>2&7) * size / 2
			got, want := c.FlushRange(pa, n), twin.FlushRange(pa, n)
			if got != want {
				t.Fatalf("%+v: FlushRange(%#x, %#x) flushed %d lines, twin %d", cfg, pa, n, got, want)
			}
			if dropped := model.flushRange(pa, n); got != dropped {
				t.Fatalf("%+v: FlushRange(%#x, %#x) flushed %d lines, LRU model %d", cfg, pa, n, got, dropped)
			}
		}
		if c.Hits != twin.Hits || c.Misses != twin.Misses || c.Evictions != twin.Evictions {
			t.Fatalf("%+v: op %d (%d): statistics %d/%d/%d, twin %d/%d/%d", cfg, i/4, op,
				c.Hits, c.Misses, c.Evictions, twin.Hits, twin.Misses, twin.Evictions)
		}
		if !slices.Equal(c.Snapshot(), twin.Snapshot()) {
			t.Fatalf("%+v: op %d (%d): ways differ from the twin's", cfg, i/4, op)
		}
		for _, x := range []*Cache{c, twin} {
			if got, want := x.Live(), resident(x); got != want {
				t.Fatalf("%+v: op %d (%d): Live() = %d, %d ways resident", cfg, i/4, op, got, want)
			}
		}
		model.check(t, c, i/4)
	}
}

// resident counts the resident ways of c's Snapshot: the sweep Live's
// counter must agree with.
func resident(c *Cache) int {
	n := 0
	for _, l := range c.Snapshot() {
		if l.Resident {
			n++
		}
	}
	return n
}

// TestLineRefMatchesScan is the fixed-seed slice of FuzzLineRef: 300
// random streams of 400 operations on each shape.
func TestLineRefMatchesScan(t *testing.T) {
	for _, cfg := range lineRefConfigs {
		for seed := int64(1); seed <= 300; seed++ {
			data := make([]byte, 4*400)
			rand.New(rand.NewSource(seed)).Read(data)
			runLineRefOps(t, cfg, data)
		}
	}
}

// FuzzLineRef checks the LineRef contract on fuzzer-chosen operation
// streams over both shapes in lineRefConfigs. The seed corpus runs with
// the ordinary tests.
func FuzzLineRef(f *testing.F) {
	// A ref re-armed on one line while its set fills and evicts, a
	// FlushAll between touches, and a FlushRange beside a touched line.
	f.Add(uint8(0), []byte{10, 0, 0, 0, 16, 0x80, 0, 5, 0, 0, 8, 0, 0, 0, 16, 0, 16, 0x80, 0, 9})
	f.Add(uint8(1), []byte{10, 1, 3, 0, 29, 0, 0, 0, 16, 0x81, 0, 0, 24, 0x8d, 0, 1, 10, 1, 3, 0})
	f.Add(uint8(0), []byte{10, 2, 0, 0, 10, 0, 8, 0, 30, 0x0c, 8, 0, 16, 0x82, 0, 0, 16, 0x80, 8, 0})
	rng := rand.New(rand.NewSource(15))
	long := make([]byte, 4*400)
	rng.Read(long)
	f.Add(uint8(1), long)
	f.Fuzz(func(t *testing.T, shape uint8, data []byte) {
		runLineRefOps(t, lineRefConfigs[int(shape)%len(lineRefConfigs)], data)
	})
}

// TestTouchHeldRun checks TouchHeldRun against the TouchFast calls it
// stands for. A run of hits goes through a few refs, two of them on one
// line; one cache makes it touch by touch, and its twin pays the same
// sequence — repetitions of the run, then part of one more — in pieces
// cut at random points, each paid with the run's held-touch list at that
// point, as the block engine pays a chain of steady passes. The ways and
// statistics must agree after every piece.
func TestTouchHeldRun(t *testing.T) {
	cfg := lineRefConfigs[2]
	size := uint64(1) << cfg.LineBits
	rng := rand.New(rand.NewSource(28))
	for round := 0; round < 200; round++ {
		c, twin := New(cfg), New(cfg)
		var refs, twinRefs [4]LineRef
		pas := [4]uint64{0, size, 2 * size, 0} // refs 0 and 3 name one line
		for k, pa := range pas {
			c.AccessRef(pa, &refs[k])
			twin.AccessRef(pa, &twinRefs[k])
		}
		// The run: each touch names a ref; every ref is touched.
		run := []int{0, 1, 2, 3}
		for len(run) < 4+rng.Intn(8) {
			run = append(run, rng.Intn(4))
		}
		rng.Shuffle(len(run), func(i, j int) { run[i], run[j] = run[j], run[i] })
		n := uint64(len(run))
		// held(p) is the run's list after its first p touches.
		held := func(p uint64) []HeldTouch {
			var last []HeldTouch
			for i, k := range run[:p] {
				last = slices.DeleteFunc(last, func(h HeldTouch) bool { return h.Ref == &twinRefs[k] })
				last = append(last, HeldTouch{Ref: &twinRefs[k], At: uint64(i + 1)})
			}
			return last
		}
		var paid, made uint64 // touches of the sequence paid on the twin, made on c
		for piece := 0; piece < 6; piece++ {
			// Pay up to a random later point: whole repetitions, then a
			// point inside the run, as settle does at a break.
			reps, p := uint64(rng.Intn(3)), uint64(rng.Intn(int(n)+1))
			end := (paid/n+reps)*n + p
			if end <= paid {
				continue
			}
			for ; made < end; made++ {
				k := run[made%n]
				if !c.TouchFast(pas[k], &refs[k]) {
					t.Fatalf("round %d: ref %d lost its line", round, k)
				}
			}
			// The passes completed since paid, the first from its
			// offset on; then the current pass up to end.
			if k := end/n - paid/n; k > 0 {
				twin.TouchHeldRun(paid%n, k*n, (k-1)*n, held(n))
				paid = end / n * n
			}
			if end > paid {
				twin.TouchHeldRun(paid%n, end%n, 0, held(end%n))
				paid = end
			}
			if c.Hits != twin.Hits || !slices.Equal(c.Snapshot(), twin.Snapshot()) {
				t.Fatalf("round %d, piece %d: paying up to touch %d diverged from touching", round, piece, end)
			}
		}
	}
}
