package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash"

	"sanctorum"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/hw/machine"
	ios "sanctorum/internal/os"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/telemetry"
)

// verdict classifies one answer against the benchmark's model.
type verdict uint8

const (
	vOK    verdict = iota
	vStale         // fleet-kv: a value the session held earlier (see check)
	vWrong         // any other wrong answer
	vError         // the call failed or was refused
)

// outcome is one served request: completion time and verdict.
type outcome struct {
	done int64 // ns since epoch
	v    verdict
}

// host is one booted machine as the tracing seams see it.
type host struct {
	M   *machine.Machine
	Mon *sm.Monitor
	OS  *ios.OS
}

// stack is one freshly built serving stack of a workload. serve
// admits reqs as one unit of work through the workload's public entry
// point, checks every answer against the stack's model of what it
// should hold, and records each request's completion and verdict.
type stack interface {
	serve(reqs []request, out []outcome)
	hosts() []host
	registry() *telemetry.Registry
	// setDigest folds every later response into h (nil stops folding).
	setDigest(h hash.Hash)
}

// --- fleet-kv: sanctorum.NewFleet / Fleet.Process ---

type fleetStack struct {
	f     *sanctorum.Fleet
	batch []sanctorum.FleetRequest
	last  [fleetSessions]uint64 // model: last value put per session
	dig   hash.Hash
}

// buildFleet boots a 2-shard Sanctum fleet serving the KV worker and
// runs one Fig 7 attested handshake between the shards.
func buildFleet(parallel bool) (*fleetStack, error) {
	f, err := sanctorum.NewFleet(sanctorum.FleetOptions{
		Kind:   sanctorum.Sanctum,
		Shards: 2,
		Config: sanctorum.FleetConfig{Parallel: parallel, Workload: "kv"},
	})
	if err != nil {
		return nil, err
	}
	if _, err := f.Connect(0, 1); err != nil {
		return nil, fmt.Errorf("connect: %w", err)
	}
	return &fleetStack{f: f}, nil
}

func (s *fleetStack) serve(reqs []request, out []outcome) {
	s.batch = s.batch[:0]
	for i := range reqs {
		s.batch = append(s.batch, sanctorum.FleetRequest{Session: reqs[i].key, Payload: reqs[i].msg[:]})
	}
	resps, err := s.f.Process(s.batch)
	done := now()
	for i := range reqs {
		out[i].done = done
		if err != nil {
			out[i].v = vError
			continue
		}
		out[i].v = s.check(&reqs[i], resps[i])
	}
}

// check compares one KV answer (value ‖ key ‖ zeros) with the model:
// a put returns the value stored, a get the session's last put. A get
// that returns an older value of the same session (or the empty slot)
// is stale: the KeyAffinity router spilled part of the session to a
// worker with its own store. Anything else is wrong.
func (s *fleetStack) check(q *request, resp []byte) verdict {
	if s.dig != nil {
		s.dig.Write(resp)
	}
	if len(resp) != api.RingMsgSize || binary.LittleEndian.Uint64(resp[8:]) != q.key ||
		!allZero(resp[16:]) {
		return vWrong
	}
	got := binary.LittleEndian.Uint64(resp)
	if q.op == enclaves.RingOpPut {
		s.last[q.key] = q.val
		if got != q.val {
			return vWrong
		}
		return vOK
	}
	want := s.last[q.key]
	switch {
	case got == want:
		return vOK
	case got == 0 || got>>32 == q.key+1 && uint32(got) < uint32(want):
		return vStale
	}
	return vWrong
}

func (s *fleetStack) hosts() []host {
	hs := make([]host, s.f.NumShards())
	for i := range hs {
		h := s.f.Host(i)
		hs[i] = host{M: h.Machine, Mon: h.Monitor, OS: h.OS}
	}
	return hs
}

func (s *fleetStack) registry() *telemetry.Registry { return s.f.Telemetry() }
func (s *fleetStack) setDigest(h hash.Hash)         { s.dig = h }

func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// --- bulk-kv: Gateway.ProcessBulk over granted buffers ---

const bulkPages = 16

type bulkStack struct {
	sys *sanctorum.System
	gw  *ios.Gateway
	pa  [bulkWorkers]uint64 // granted buffer base per worker
	cap int                 // buffer bytes per worker

	model [bulkKeys][bulkMaxLen]byte // slot page contents per key
	msgs  [][]byte
	wire  [][api.RingMsgSize]byte
	offs  []int
	idx   []int
	val   [bulkMaxLen]byte
	dig   hash.Hash

	// stageNS is host time in WriteOwned/ReadOwned (os.bulk.stage_ns).
	stageNS int64
}

// buildBulk boots one Sanctum machine with a bulk gateway of two
// BulkKVServer workers, each with a 16-page granted buffer.
func buildBulk() (*bulkStack, error) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		return nil, err
	}
	l := enclaves.DefaultLayout()
	regions := sys.OS.FreeRegions()
	sharedPA, err := sys.SetupShared(l.SharedVA)
	if err != nil {
		return nil, err
	}
	spec, err := enclaves.BulkSpec(l, enclaves.BulkKVServer(l), regions[:1], sharedPA)
	if err != nil {
		return nil, err
	}
	pool, err := sys.NewPool(spec, regions[1:1+bulkWorkers], 1)
	if err != nil {
		return nil, err
	}
	gw, err := sys.NewGateway(pool, sanctorum.GatewayConfig{
		Workers:    bulkWorkers,
		BulkPages:  bulkPages,
		BulkRegion: regions[1+bulkWorkers],
		Sched:      sanctorum.SchedConfig{Mode: sanctorum.Deterministic},
	})
	if err != nil {
		return nil, err
	}
	s := &bulkStack{sys: sys, gw: gw}
	for w := range s.pa {
		_, s.pa[w], s.cap = gw.BulkBuffer(w)
	}
	return s, nil
}

// serve routes each request to the worker holding its key (key/8;
// the slot is key mod 8) and flushes each worker's requests in calls
// whose value spans fit its buffer.
func (s *bulkStack) serve(reqs []request, out []outcome) {
	for w := 0; w < bulkWorkers; w++ {
		s.idx, s.offs = s.idx[:0], s.offs[:0]
		used := 0
		for i := range reqs {
			if int(reqs[i].key)/enclaves.BulkKVSlots != w {
				continue
			}
			if used+reqs[i].size > s.cap {
				s.flush(w, reqs, out)
				s.idx, s.offs, used = s.idx[:0], s.offs[:0], 0
			}
			s.idx = append(s.idx, i)
			s.offs = append(s.offs, used)
			used += reqs[i].size
		}
		s.flush(w, reqs, out)
	}
}

// flush stages the puts of s.idx in worker w's buffer, serves the
// descriptor messages through ProcessBulk, and checks every answer.
func (s *bulkStack) flush(w int, reqs []request, out []outcome) {
	if len(s.idx) == 0 {
		return
	}
	for len(s.wire) < len(s.idx) {
		s.wire = append(s.wire, [api.RingMsgSize]byte{})
	}
	s.msgs = s.msgs[:0]
	failed := false
	for j, i := range s.idx {
		q := &reqs[i]
		off := uint64(s.offs[j])
		if q.op == enclaves.RingOpPut {
			fillValue(s.val[:q.size], q.val)
			t := now()
			if err := s.sys.OS.WriteOwned(s.pa[w]+off, s.val[:q.size]); err != nil {
				failed = true
			}
			s.stageNS += now() - t
		}
		m := &s.wire[j]
		*m = api.EncodeBulkDescs([2]uint64{off, uint64(q.size)})
		binary.LittleEndian.PutUint64(m[32:], q.op)
		binary.LittleEndian.PutUint64(m[40:], q.key)
		s.msgs = append(s.msgs, m[:])
	}
	var resps [][]byte
	var err error
	if !failed {
		resps, err = s.gw.ProcessBulk(w, s.msgs)
	}
	done := now()
	for j, i := range s.idx {
		out[i].done = done
		if failed || err != nil {
			out[i].v = vError
			continue
		}
		out[i].v = s.check(&reqs[i], w, uint64(s.offs[j]), s.msgs[j], resps[j])
	}
}

// check verifies the echoed descriptor message and, for a get, that
// the span holds the bytes of the key's last put.
func (s *bulkStack) check(q *request, w int, off uint64, msg, resp []byte) verdict {
	if s.dig != nil {
		s.dig.Write(resp)
	}
	if !bytes.Equal(resp, msg) {
		return vWrong
	}
	slot := s.model[q.key][:q.size]
	if q.op == enclaves.RingOpPut {
		fillValue(slot, q.val)
		return vOK
	}
	t := now()
	got, err := s.sys.OS.ReadOwned(s.pa[w]+off, q.size)
	s.stageNS += now() - t
	if err != nil {
		return vError
	}
	if s.dig != nil {
		s.dig.Write(got)
	}
	if !bytes.Equal(got, slot) {
		return vWrong
	}
	return vOK
}

func (s *bulkStack) hosts() []host {
	return []host{{M: s.sys.Machine, Mon: s.sys.Monitor, OS: s.sys.OS}}
}

func (s *bulkStack) registry() *telemetry.Registry { return s.sys.Telemetry }
func (s *bulkStack) setDigest(h hash.Hash)         { s.dig = h }

// --- cold-start: Pool.Acquire / System.Enter / Pool.Release ---

// coldBase is the measured running total the StatefulAdder template
// starts from; a fresh clone given n must answer coldBase+n.
const coldBase = 1000

type coldStack struct {
	sys    *sanctorum.System
	pool   *ios.Pool
	shared uint64 // the template's shared page, aliased by every clone
	dig    hash.Hash

	// Host time in the pool calls, and their allocations when
	// countAllocs is set (os.pool.*).
	acquireNS, enterNS, releaseNS int64
	acquireAllocs, releaseAllocs  uint64
	countAllocs                   bool
	starts                        int
}

// buildCold boots one Sanctum machine and a snapshot/clone pool over a
// measured StatefulAdder template whose private total starts at 1000.
func buildCold() (*coldStack, error) {
	sys, err := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
	if err != nil {
		return nil, err
	}
	l := enclaves.DefaultLayout()
	shared, err := sys.SetupShared(l.SharedVA)
	if err != nil {
		return nil, err
	}
	regions := sys.OS.FreeRegions()
	var dataInit [8]byte
	binary.LittleEndian.PutUint64(dataInit[:], coldBase)
	spec, err := enclaves.Spec(l, enclaves.StatefulAdder(l), dataInit[:], regions[:1],
		[]ios.SharedMapping{{VA: l.SharedVA, PA: shared}})
	if err != nil {
		return nil, err
	}
	pool, err := sys.NewPool(spec, regions[1:3], 1)
	if err != nil {
		return nil, err
	}
	return &coldStack{sys: sys, pool: pool, shared: shared}, nil
}

func (s *coldStack) serve(reqs []request, out []outcome) {
	for i := range reqs {
		out[i].v = s.start(reqs[i].val)
		out[i].done = now()
	}
}

// start is one cold start: fork a clone, run it once on n, check the
// answer, recycle the clone.
func (s *coldStack) start(n uint64) verdict {
	var m0 uint64
	if s.countAllocs {
		m0 = mallocs()
	}
	t0 := now()
	w, err := s.pool.Acquire(0)
	t1 := now()
	if s.countAllocs {
		s.acquireAllocs += mallocs() - m0
	}
	if err != nil {
		return vError
	}
	v := vOK
	if err := s.sys.SharedWriteWord(s.shared, enclaves.ShInput, n); err != nil {
		v = vError
	}
	t2 := now()
	res, err := s.sys.Enter(0, w.EID, w.TIDs[0], 1_000_000)
	t3 := now()
	if v == vOK {
		if err != nil || res.Reason != machine.StopReturnToOS {
			v = vError
		} else if got, err := s.sys.SharedReadWord(s.shared, enclaves.ShOutput); err != nil {
			v = vError
		} else {
			if s.dig != nil {
				var b [8]byte
				binary.LittleEndian.PutUint64(b[:], got)
				s.dig.Write(b[:])
			}
			if got != coldBase+n {
				v = vWrong
			}
		}
	}
	if s.countAllocs {
		m0 = mallocs()
	}
	t4 := now()
	if err := s.pool.Release(w); err != nil {
		v = vError
	}
	t5 := now()
	if s.countAllocs {
		s.releaseAllocs += mallocs() - m0
	}
	s.acquireNS += t1 - t0
	s.enterNS += t3 - t2
	s.releaseNS += t5 - t4
	s.starts++
	return v
}

func (s *coldStack) hosts() []host {
	return []host{{M: s.sys.Machine, Mon: s.sys.Monitor, OS: s.sys.OS}}
}

func (s *coldStack) registry() *telemetry.Registry { return s.sys.Telemetry }
func (s *coldStack) setDigest(h hash.Hash)         { s.dig = h }
