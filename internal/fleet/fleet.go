// Package fleet is the multi-machine tier above Sanctorum's
// deliberately per-machine monitor (DESIGN.md §12): N independent
// machine × monitor × pool × gateway shards behind a routing tier.
// Nothing here is trusted — the fleet is datacenter infrastructure in
// the same sense the OS model is: sessions are consistent-hashed onto
// shards (spilling to the least-loaded shard under skew, rebalancing
// by warming a snapshot-clone worker on the target before traffic
// cuts over), and enclaves on different machines get channels only by
// running the paper's Fig 7 mutual remote-attestation handshake over
// an untrusted wire between the machines, yielding a measurement-bound
// pipe whose every message is authenticated together with the channel
// binding.
//
// The package operates on pre-booted hosts so the facade can assemble
// them (sanctorum.NewFleet); it never imports the facade itself.
package fleet

import (
	"crypto/ed25519"
	"fmt"
	"sync"

	"sanctorum/internal/crypto/kdf"
	"sanctorum/internal/enclaves"
	"sanctorum/internal/hw/machine"
	ios "sanctorum/internal/os"
	"sanctorum/internal/sm"
	"sanctorum/internal/telemetry"
)

// Host is one booted machine handed to the fleet: hardware, monitor,
// untrusted OS, and the manufacturer root key the operator pins for
// this machine's PKI. Hosts must have been booted with the signing-
// enclave measurement from SigningMeasurement(), or attestation will
// refuse to sign.
type Host struct {
	Machine     *machine.Machine
	Monitor     *sm.Monitor
	OS          *ios.OS
	TrustedRoot ed25519.PublicKey
}

// Config configures New. Zero fields take defaults.
type Config struct {
	// SpareWorkers reserves clone regions per shard for rebalance
	// warm-ups (default 1).
	SpareWorkers int
	// Sched configures each shard's per-wave OS scheduler. The default
	// (deterministic mode) makes the whole fleet bit-reproducible.
	Sched ios.SchedConfig
	// Parallel serves shards on one goroutine each — genuine
	// multi-machine concurrency (each shard is its own Machine), at
	// the cost of reproducible interleaving.
	Parallel bool
	// Workload selects the shard worker program: "echo" (default) or
	// "kv".
	Workload string
	// Seed feeds the fleet-side verifier entropy (nonces, key
	// agreement). Fixed by default, so deterministic-mode handshakes
	// replay bit-identically.
	Seed []byte
	// Telemetry is the registry the routing tier instruments against —
	// normally the same registry every shard's monitor and gateway
	// share, so per-call and per-ring instruments aggregate fleet-wide.
	// nil disables fleet-level telemetry.
	Telemetry *telemetry.Registry
}

func (cfg *Config) fill() {
	if cfg.SpareWorkers < 0 {
		cfg.SpareWorkers = 0
	} else if cfg.SpareWorkers == 0 {
		cfg.SpareWorkers = 1
	}
	if cfg.Workload == "" {
		cfg.Workload = "echo"
	}
	if cfg.Seed == nil {
		cfg.Seed = []byte("sanctorum-fleet")
	}
}

// Request is one fleet request: a session key (routed consistently to
// a shard, then to a worker within it) and a payload of at most one
// ring message.
type Request struct {
	Session uint64
	Payload []byte
}

// Fleet is the assembled routing tier.
type Fleet struct {
	cfg    Config
	shards []*shard

	points   []hashPoint          // consistent-hash ring, sorted
	sessions map[uint64]placement // session key → shard and worker
	load     []int                // live sessions per shard
	draining []bool

	rng *drbg

	// batches[s] is shard s's share of a Process call, reused across
	// calls; Process clears its payloads before returning.
	batches []shardBatch

	// inbox[s] is the wire's FIFO of blobs sent to shard s and not yet
	// received (channel.go).
	inbox [][][]byte

	mu sync.Mutex // guards the counters below in parallel mode

	// Served counts requests completed; Spills counts sessions placed
	// off their consistent-hash home; Rebalanced counts sessions moved
	// by Drain. They are the only copy: the registry reads them lazily.
	Served     int
	Spills     int
	Rebalanced int

	// tel caches the routing tier's instrument handles (nil without a
	// registry); traceNext is a trace armed by TraceNextRequest and
	// consumed by the next Process call.
	tel       *fleetTelemetry
	traceNext *telemetry.Trace
}

// shardBatch is one shard's share of a Process call: its requests'
// workers (from the session table) and payloads, their indexes in the
// call, and the error its gateway returned.
type shardBatch struct {
	workers  []uint64
	payloads [][]byte
	idx      []int
	err      error
}

// fleetTelemetry is the routing tier's cached instrument set.
type fleetTelemetry struct {
	home      *telemetry.Counter   // sessions placed on their hash home
	drains    *telemetry.Counter   // Drain operations completed
	handshake *telemetry.Histogram // Connect handshake latency, cycles
	batch     *telemetry.Histogram // requests per Process call
}

// SigningMeasurement computes the signing-enclave measurement every
// fleet host must be booted with (the monitor hard-codes it at boot,
// §VI-C). It is placement-free: the same for every machine.
func SigningMeasurement() ([32]byte, error) {
	l := enclaves.DefaultLayout()
	spec, err := enclaves.Spec(l, enclaves.SigningEnclave(l), nil, nil,
		[]ios.SharedMapping{{VA: l.SharedVA}})
	if err != nil {
		return [32]byte{}, err
	}
	return ios.ExpectedMeasurement(spec), nil
}

// New assembles a fleet over the given hosts: per host, an attestation
// enclave pair (signing enclave + attested client), a snapshot/clone
// worker pool and a gateway. Bytes between machines travel on a wire
// the fleet itself carries, outside every monitor.
func New(hosts []Host, cfg Config) (*Fleet, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("fleet: no hosts")
	}
	cfg.fill()
	f := &Fleet{
		cfg:      cfg,
		sessions: make(map[uint64]placement),
		load:     make([]int, len(hosts)),
		draining: make([]bool, len(hosts)),
		rng:      newDRBG(cfg.Seed),
	}
	for i, h := range hosts {
		s, err := buildShard(i, h, &cfg)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("fleet: shard %d: %w", i, err)
		}
		f.shards = append(f.shards, s)
		f.addPoints(i)
	}
	f.batches = make([]shardBatch, len(f.shards))
	f.inbox = make([][][]byte, len(f.shards))
	if reg := cfg.Telemetry; reg != nil {
		f.tel = &fleetTelemetry{
			home:      reg.Counter("fleet.route.home"),
			drains:    reg.Counter("fleet.drains"),
			handshake: reg.Histogram("fleet.handshake.cycles"),
			batch:     reg.Histogram("fleet.process.batch"),
		}
		// Converge the existing counter surfaces onto the registry as
		// lazy reads — the fields stay the source of truth (and the
		// public accessors keep their exact semantics); Snapshot simply
		// reads them. Snapshots are taken while the fleet is quiesced.
		reg.RegisterFunc("fleet.served", func() uint64 {
			f.mu.Lock()
			defer f.mu.Unlock()
			return uint64(f.Served)
		})
		reg.RegisterFunc("fleet.route.spill", func() uint64 { return uint64(f.Spills) })
		reg.RegisterFunc("fleet.rebalanced", func() uint64 { return uint64(f.Rebalanced) })
		for i := range f.shards {
			i := i
			reg.RegisterFunc(fmt.Sprintf("fleet.shard%d.sessions", i), func() uint64 {
				return uint64(f.load[i])
			})
			reg.RegisterFunc(fmt.Sprintf("fleet.shard%d.workers", i), func() uint64 {
				return uint64(f.shards[i].gw.NumWorkers())
			})
			reg.RegisterFunc(fmt.Sprintf("fleet.shard%d.served", i), func() uint64 {
				return uint64(f.shards[i].gw.Served)
			})
		}
	}
	return f, nil
}

// Clock sums every shard machine's published cycle counters: the
// fleet-level telemetry time base. Monotone (each machine's published
// counters never move backwards) and purely simulation-derived, so
// trace stamps replay bit-identically in deterministic mode.
func (f *Fleet) Clock() uint64 {
	var sum uint64
	for _, s := range f.shards {
		sum += s.host.Machine.CycleNow()
	}
	return sum
}

// TraceNextRequest arms request tracing: the first request of the next
// Process call is followed router → shard → gateway → ring → worker →
// response, emitting cycle-stamped spans into the returned trace.
func (f *Fleet) TraceNextRequest() *telemetry.Trace {
	t := telemetry.NewTrace(f.Clock)
	f.traceNext = t
	return t
}

// NumShards reports the shard count (including draining shards).
func (f *Fleet) NumShards() int { return len(f.shards) }

// Telemetry returns the registry the fleet was assembled with, nil
// when telemetry is disabled.
func (f *Fleet) Telemetry() *telemetry.Registry { return f.cfg.Telemetry }

// Host returns shard i's booted machine stack, for observers (cycle
// counters, monitors) — not for mutating fleet-owned state.
func (f *Fleet) Host(i int) Host { return f.shards[i].host }

// Process serves a request batch end to end: each request routes to
// its session's shard, shard batches serve through the per-shard
// gateways (sequentially in shard order when deterministic, one
// goroutine per shard in parallel mode), and responses return in
// request order. The fleet keeps no reference to a request's payload
// once Process returns.
func (f *Fleet) Process(reqs []Request) ([][]byte, error) {
	defer f.dropPayloads()
	for s := range f.batches {
		b := &f.batches[s]
		b.workers, b.payloads, b.idx, b.err = b.workers[:0], b.payloads[:0], b.idx[:0], nil
	}
	// A trace armed by TraceNextRequest follows the batch's first
	// request; the root span covers the whole Process call.
	tr := f.traceNext
	f.traceNext = nil
	root, tracedShard := -1, -1
	if tr != nil && len(reqs) > 0 {
		root = tr.Begin(-1, "router", "request")
	}
	if t := f.tel; t != nil {
		t.batch.Observe(uint64(len(reqs)))
	}
	// Routing mutates the session table; it runs up front on the
	// caller's goroutine, in request order, deterministically.
	for i, r := range reqs {
		p, err := f.route(r.Session)
		if err != nil {
			return nil, err
		}
		if tr != nil && i == 0 {
			tr.End(tr.Begin(root, "router", fmt.Sprintf("route shard=%d", p.shard)))
			tracedShard = p.shard
		}
		b := &f.batches[p.shard]
		b.workers = append(b.workers, uint64(p.worker))
		b.payloads = append(b.payloads, r.Payload)
		b.idx = append(b.idx, i)
	}
	out := make([][]byte, len(reqs))
	if f.cfg.Parallel {
		// The trace arguments go in by value: a captured root or
		// tracedShard would move to the heap on every call, serial
		// ones included.
		var wg sync.WaitGroup
		for s := range f.shards {
			wg.Add(1)
			go func(s, root, traced int) {
				defer wg.Done()
				f.batches[s].err = f.serveShard(s, out, tr, root, traced)
			}(s, root, tracedShard)
		}
		wg.Wait()
	} else {
		for s := range f.shards {
			if f.batches[s].err = f.serveShard(s, out, tr, root, tracedShard); f.batches[s].err != nil {
				break
			}
		}
	}
	for s := range f.batches {
		if err := f.batches[s].err; err != nil {
			return nil, err
		}
	}
	if tr != nil {
		tr.End(root)
	}
	f.mu.Lock()
	f.Served += len(reqs)
	f.mu.Unlock()
	return out, nil
}

// serveShard serves shard s's batch through its gateway, each request
// on the worker the session table recorded, and places each response
// at its request's index in out. When s is the traced shard, tr
// follows the call's first request — index 0 of this batch, since it
// routed first — under parent span root.
func (f *Fleet) serveShard(s int, out [][]byte, tr *telemetry.Trace, root, traced int) error {
	b := &f.batches[s]
	if len(b.idx) == 0 {
		return nil
	}
	span := -1
	if tr != nil && s == traced {
		span = tr.Begin(root, "shard", fmt.Sprintf("serve shard=%d", s))
		f.shards[s].gw.TraceRequest(tr, span, 0)
	}
	resps, err := f.shards[s].gw.ProcessKeyed(b.workers, b.payloads)
	if span >= 0 {
		tr.End(span)
	}
	if err != nil {
		return fmt.Errorf("fleet: shard %d: %w", s, err)
	}
	for j, r := range resps {
		out[b.idx[j]] = r
	}
	return nil
}

// dropPayloads clears every shard batch's payload references, so the
// reused arenas never keep a caller's buffers alive.
func (f *Fleet) dropPayloads() {
	for s := range f.batches {
		clear(f.batches[s].payloads)
	}
}

// ShardStats is one shard's view in Stats.
type ShardStats struct {
	Sessions int
	Workers  int
	Served   int
	Draining bool
}

// Stats snapshots the routing tier.
func (f *Fleet) Stats() []ShardStats {
	out := make([]ShardStats, len(f.shards))
	for i, s := range f.shards {
		out[i] = ShardStats{
			Sessions: f.load[i],
			Workers:  s.gw.NumWorkers(),
			Served:   s.gw.Served,
			Draining: f.draining[i],
		}
	}
	return out
}

// Close tears every shard down (gateway, pool), best-effort; the
// first error is the one reported.
func (f *Fleet) Close() error {
	var firstErr error
	for _, s := range f.shards {
		if err := s.close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// drbg is a deterministic byte stream over the KDF — the fleet-side
// verifier's entropy source. Determinism here is what lets an entire
// fleet run, handshakes included, replay bit-identically; a production
// deployment would substitute the platform RNG.
type drbg struct {
	state []byte
	buf   []byte
}

func newDRBG(seed []byte) *drbg {
	return &drbg{state: kdf.Derive(seed, "fleet-drbg-init", nil, 32)}
}

func (d *drbg) Read(p []byte) (int, error) {
	for len(d.buf) < len(p) {
		d.state = kdf.Derive(d.state, "fleet-drbg-next", nil, 32)
		d.buf = append(d.buf, kdf.Derive(d.state, "fleet-drbg-out", nil, 32)...)
	}
	copy(p, d.buf)
	d.buf = d.buf[len(p):]
	return len(p), nil
}
