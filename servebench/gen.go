package main

import (
	"encoding/binary"
	"math/rand/v2"

	"sanctorum/internal/enclaves"
)

// request is one generated request. The generator alone decides its
// fields from the seed; the stacks receive nothing else.
type request struct {
	op   uint64   // enclaves.RingOpPut or RingOpGet (unused by cold-start)
	key  uint64   // fleet-kv session (= its KV key); bulk-kv key
	val  uint64   // fleet-kv put value; bulk-kv value seed; cold-start input n
	size int      // bulk-kv value length in bytes
	msg  [64]byte // fleet-kv wire payload: op ‖ key ‖ value
}

// newRand returns the seed's request stream (a PCG generator).
func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(splitmix(seed^1<<56), splitmix(seed)))
}

// splitmix is the splitmix64 finalizer.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// gen yields a workload's request stream, one request per call.
type gen func(r *request)

// Fleet-kv request mix.
const (
	fleetSessions = 128 // one KV key each
	fleetZipfS    = 1.1
	fleetPutShare = 0.10
)

// newFleetGen draws Zipf-ranked sessions (rank = session id, so the
// hottest session is the same for every seed) with 10% puts. Put
// values are (session+1)<<32 | n for the session's n-th put: unique
// and increasing, so a checker can tell a stale read from garbage.
func newFleetGen(seed uint64) gen {
	r := newRand(seed)
	z := rand.NewZipf(r, fleetZipfS, 1, fleetSessions-1)
	var puts [fleetSessions]uint64
	return func(q *request) {
		s := z.Uint64()
		q.key, q.op, q.val, q.size = s, enclaves.RingOpGet, 0, 0
		if r.Float64() < fleetPutShare {
			puts[s]++
			q.op, q.val = enclaves.RingOpPut, (s+1)<<32|puts[s]
		}
		q.msg = [64]byte{}
		binary.LittleEndian.PutUint64(q.msg[0:], q.op)
		binary.LittleEndian.PutUint64(q.msg[8:], q.key)
		binary.LittleEndian.PutUint64(q.msg[16:], q.val)
	}
}

// Bulk-kv request mix: 16 keys, 8 held by each worker.
const (
	bulkWorkers = 2
	bulkKeys    = bulkWorkers * enclaves.BulkKVSlots
	bulkMinLen  = 512
	bulkMaxLen  = 4096
)

// newBulkGen draws uniform keys, 50/50 put/get, put lengths uniform
// over [512, 4096] in 8-byte steps. A get asks for the length of the
// key's last put (any length before the first put), so every get has
// one exact expected answer.
func newBulkGen(seed uint64) gen {
	r := newRand(seed)
	var lastLen [bulkKeys]int
	return func(q *request) {
		q.key = r.Uint64N(bulkKeys)
		q.size = bulkMinLen + 8*r.IntN((bulkMaxLen-bulkMinLen)/8+1)
		q.op, q.val = enclaves.RingOpGet, 0
		if r.IntN(2) == 0 {
			q.op, q.val = enclaves.RingOpPut, r.Uint64()
			lastLen[q.key] = q.size
		} else if n := lastLen[q.key]; n > 0 {
			q.size = n
		}
	}
}

// newColdGen draws cold-start inputs n in [1, 1000].
func newColdGen(seed uint64) gen {
	r := newRand(seed)
	return func(q *request) {
		*q = request{val: 1 + r.Uint64N(1000)}
	}
}

// fillValue writes the bytes of the bulk value with the given seed.
func fillValue(dst []byte, seed uint64) {
	x := seed
	for i := 0; i < len(dst); i += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(dst[i:], x)
	}
}
