package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// The LineRef contract: a ref names one way, and TouchFast/TouchFastN
// may hit through it only while that way holds the line a scanning
// Access would hit, with bookkeeping identical to that scan. These tests
// drive refs and a twin cache that takes every access through Access,
// and require the two caches to stay equal way by way.

// lineRefConfigs are a shared cache and a page-coloured one, both small
// enough that a pool of a few dozen lines conflicts, evicts and refills.
var lineRefConfigs = []Config{
	{Sets: 8, Ways: 2, LineBits: 6, HitCycles: 2, MissCycles: 40},
	{Sets: 8, Ways: 2, LineBits: 6, HitCycles: 2, MissCycles: 40, Partitions: 2, PartitionShift: 12},
}

// runLineRefOps decodes data, four bytes per operation, into Access,
// AccessRef, TouchFast and TouchFastN calls through three refs on one
// cache, interleaved with FlushAll and FlushRange on both caches. A
// failed touch falls back to AccessRef, as the machine's callers do.
// After every operation the caches' ways and statistics must be equal,
// each cache's Live() must equal its resident ways, and a touch may hit
// only when the twin's Probe finds the line.
func runLineRefOps(t *testing.T, cfg Config, data []byte) {
	t.Helper()
	c, twin := New(cfg), New(cfg)
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
				}
			} else {
				for j := uint64(0); j < n; j++ {
					if !c.TouchFast(pa, &refs[k]) {
						access(pa, &refs[k])
						continue
					}
					twin.Access(pa)
				}
				armed[k] = pa
			}
		case op == 29:
			c.FlushAll()
			twin.FlushAll()
		default:
			n := uint64(b1>>2&7) * size / 2
			if got, want := c.FlushRange(pa, n), twin.FlushRange(pa, n); got != want {
				t.Fatalf("%+v: FlushRange(%#x, %#x) flushed %d lines, twin %d", cfg, pa, n, got, want)
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
