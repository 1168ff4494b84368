package os

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"sync"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/telemetry"
)

// Gateway is the untrusted OS's request-serving front end over the
// monitor's mailbox rings (DESIGN.md §9): host requests go in, enclave
// responses come out, and everything in between is verified IPC.
//
// Each pool worker gets a request ring (producer: OS, consumer:
// worker) and a response ring (producer: worker, consumer: OS). The
// worker — a ring server from internal/enclaves — parks on its request
// ring; the gateway batches requests into ring sends, and the
// monitor's park/wake protocol tells the gateway which workers became
// runnable (the wake sink, fed through the IPI mailboxes — no OS
// polling of idle workers). Woken workers are then timeshared over the
// machine's cores by the existing OS scheduler for one wave; each
// drains its ring, serves every request, streams the responses into
// its response ring, and parks again. The gateway drains the response
// rings, verifies the monitor's sender stamp on every record (worker
// eid and template measurement — attestation-grade provenance), and
// matches responses to requests FIFO per worker.
//
// Like the pool and the loader, the gateway is resource management
// outside the TCB: every step travels through the call ABI, and
// nothing it does can weaken the monitor's guarantees.
type Gateway struct {
	o     *OS
	pool  *Pool
	wakes WakeSource
	cfg   GatewayConfig

	workers []*gwWorker
	byEID   map[uint64]int

	sendPA uint64 // staging page for outbound payload batches
	recvPA uint64 // staging page for inbound record batches

	// woken collects wake notifications (worker indexes). The sink runs
	// on whatever goroutine drains the posted IPI — during gateway
	// sends the cores are idle, so in practice the gateway's own — but
	// it is locked for the parallel-scheduler case regardless.
	wokenMu sync.Mutex
	woken   map[int]bool

	// Served and Waves count gateway activity for reporting.
	Served int
	Waves  int

	// tel caches the gateway's instrument handles (nil when the OS has
	// no registry); trace is an armed per-request trace consumed by
	// the next serving call.
	tel   *gwTelemetry
	trace *gwTrace
}

// gwTelemetry is the gateway's cached instrument set; stamps are
// modeled cycles from the machine, never wall time.
type gwTelemetry struct {
	clock     func() uint64
	served    *telemetry.Counter
	waves     *telemetry.Counter
	chunk     *telemetry.Histogram // requests per batched ring send
	reqCycles *telemetry.Histogram // per-request end-to-end cycles
	inflight  *telemetry.Gauge     // outstanding requests, all workers
}

// gwTrace carries one armed request trace through a serving call:
// dispatch→send→execute→recv→response spans for the request at idx.
type gwTrace struct {
	t      *telemetry.Trace
	parent int
	idx    int
	worker int
	span   int
	done   bool
}

// TraceRequest arms tracing for the request at index idx of the next
// serving call — ProcessKeyed (and so Process) or ProcessBulk —
// emitting spans under parent into t. One request per call; the fleet
// router uses this to extend its trace through the shard's gateway.
func (g *Gateway) TraceRequest(t *telemetry.Trace, parent, idx int) {
	if t == nil {
		g.trace = nil
		return
	}
	g.trace = &gwTrace{t: t, parent: parent, idx: idx, worker: -1, span: -1}
}

// gwWorker is one pool worker wired to its ring pair (and, when the
// gateway runs a bulk data plane, its grant and shared buffer).
type gwWorker struct {
	w        *Worker
	reqRing  uint64
	respRing uint64
	grant    uint64 // bulk grant id (0 when bulk is off)
	bulkPA   uint64 // bulk buffer base PA
	bulkVA   uint64 // where this worker bulk_maps the buffer
	inflight int    // requests sent, responses not yet drained
	pending  []int  // request indexes awaiting responses, FIFO

	// stamps parallels pending with each request's send-time cycle
	// stamp (maintained only when telemetry is wired); stampHead is
	// the FIFO read position, so the backing array is reused across
	// waves instead of sliding — drains reset it when it empties.
	// depth is this worker's queue-depth gauge.
	stamps    []uint64
	stampHead int
	depth     *telemetry.Gauge
}

// GatewayConfig configures NewGateway. Zero fields take defaults.
type GatewayConfig struct {
	// Workers is the number of pool workers to acquire (default 2).
	Workers int
	// RingCapacity is each ring's capacity in messages (default 64).
	RingCapacity int
	// Batch bounds the messages per ring send/recv the gateway issues
	// (default 8, capped at api.RingMaxBatch).
	Batch int
	// Sched configures the per-wave OS scheduler (mode, quantum).
	Sched SchedConfig
	// MaxStepsPerWake bounds a worker's instructions per wave; a worker
	// still running past it is forced off and reported as an error
	// (default 5,000,000).
	MaxStepsPerWake int
	// Router selects the worker for each request chunk (default a
	// RoundRobin; fleet shards install KeyAffinity).
	Router Router
	// BulkPages, when nonzero, turns on the zero-copy bulk data plane
	// (DESIGN.md §14): each worker gets a contiguous BulkPages-page
	// OS buffer under a monitor grant, mapped at a distinct per-worker
	// VA, and ProcessBulk serves scatter-gather descriptor requests
	// through it. The pool template must be a bulk server
	// (internal/enclaves.BulkEchoServer / BulkKVServer) built with
	// BulkSpec. At most api.BulkMaxPages.
	BulkPages int
	// BulkVABase is where worker 0 maps its bulk buffer; worker i maps
	// at BulkVABase + i·BulkPages·4096 (default 0x50001000, inside the
	// 2 MiB leaf BulkSpec's shared window allocates). Every worker's
	// window must fit that leaf: under Sanctum all workers resolve
	// these VAs through the one OS page table, which is why the
	// addresses differ per worker in the first place.
	BulkVABase uint64
	// BulkRegion, when positive, is a free OS-owned DRAM region whose
	// pages back the bulk buffers (worker i at offset i·BulkPages·4096)
	// — the usual choice, since the kernel region is small. While any
	// grant lives, the page pins make the monitor refuse to scrub the
	// region for reassignment. Zero allocates from the kernel region.
	BulkRegion int
}

// WakeSource is the monitor surface the gateway registers its
// park/wake sink with; *sm.Monitor implements it.
type WakeSource interface {
	SetWakeSink(func(ringID, eid, tid uint64))
}

func (cfg *GatewayConfig) fill() {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.RingCapacity <= 0 {
		cfg.RingCapacity = 64
	}
	if cfg.RingCapacity > api.RingMaxCapacity {
		cfg.RingCapacity = api.RingMaxCapacity
	}
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	if cfg.Batch > api.RingMaxBatch {
		cfg.Batch = api.RingMaxBatch
	}
	if cfg.MaxStepsPerWake <= 0 {
		cfg.MaxStepsPerWake = 5_000_000
	}
	if cfg.Router == nil {
		cfg.Router = &RoundRobin{}
	}
	if cfg.BulkPages > api.BulkMaxPages {
		cfg.BulkPages = api.BulkMaxPages
	}
	if cfg.BulkVABase == 0 {
		cfg.BulkVABase = 0x50001000
	}
}

// NewGateway forks cfg.Workers ring-serving workers from the pool's
// template, wires each to a request/response ring pair, registers the
// park/wake sink, and runs one startup wave so every worker discovers
// its rings and parks. The pool's template must be a single-thread
// ring server (internal/enclaves.RingEchoServer / RingKVServer).
func NewGateway(o *OS, wakes WakeSource, pool *Pool, cfg GatewayConfig) (*Gateway, error) {
	cfg.fill()
	g := &Gateway{
		o:     o,
		pool:  pool,
		wakes: wakes,
		cfg:   cfg,
		byEID: make(map[uint64]int),
		woken: make(map[int]bool),
	}
	if reg := o.Telemetry; reg != nil {
		g.tel = &gwTelemetry{
			clock:     o.M.CycleNow,
			served:    reg.Counter("os.gateway.served"),
			waves:     reg.Counter("os.gateway.waves"),
			chunk:     reg.Histogram("os.gateway.chunk.size"),
			reqCycles: reg.Histogram("os.gateway.request.cycles"),
			inflight:  reg.Gauge("os.gateway.inflight"),
		}
	}
	// A failed constructor unwinds what it built — rings destroyed,
	// workers released to the pool — so retrying gateway construction
	// leaks neither pool capacity nor SM metadata pages. Best-effort:
	// the original error is the one reported.
	fail := func(err error) (*Gateway, error) {
		for _, gw := range g.workers {
			if o.SM.RingDestroy(gw.reqRing) == nil {
				o.ReleaseMetaPage(gw.reqRing)
			}
			if o.SM.RingDestroy(gw.respRing) == nil {
				o.ReleaseMetaPage(gw.respRing)
			}
			// Rings first: destroying them releases any queued descriptor
			// pins, so the revoke cannot be refused for in-flight data.
			if gw.grant != 0 && o.SM.BulkRevoke(gw.grant) == nil {
				o.ReleaseMetaPage(gw.grant)
			}
			pool.Release(gw.w)
		}
		return nil, err
	}
	var err error
	if g.sendPA, err = o.AllocPagePA(); err != nil {
		return nil, err
	}
	if g.recvPA, err = o.AllocPagePA(); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		gw, err := g.newWorker()
		if err != nil {
			return fail(fmt.Errorf("os: gateway worker %d: %w", i, err))
		}
		g.byEID[gw.w.EID] = i
		g.workers = append(g.workers, gw)
		g.wireWorkerGauge(gw, i)
	}
	// Bulk buffers and grants must exist before the startup wave: the
	// workers discover their grants in it.
	if cfg.BulkPages > 0 {
		for i, gw := range g.workers {
			if err := g.setupBulk(gw, i); err != nil {
				return fail(fmt.Errorf("os: gateway bulk worker %d: %w", i, err))
			}
		}
	}
	wakes.SetWakeSink(func(ringID, eid, tid uint64) {
		g.wokenMu.Lock()
		if i, known := g.byEID[eid]; known {
			g.woken[i] = true
		}
		g.wokenMu.Unlock()
	})
	// Startup wave: every worker runs from its entry, reads its ring
	// directory, finds the request ring empty, and parks.
	var all []int
	for i := range g.workers {
		all = append(all, i)
	}
	if err := g.wave(all, api.ParkedExitValue); err != nil {
		wakes.SetWakeSink(func(ringID, eid, tid uint64) {})
		return fail(fmt.Errorf("os: gateway startup: %w", err))
	}
	// Second boot phase for bulk workers: each is parked waiting for
	// the setup message naming its window VA; send it, then run the
	// wave in which every worker bulk_maps its buffer and parks serving.
	if cfg.BulkPages > 0 {
		for i, gw := range g.workers {
			if err := g.sendBulkSetup(gw); err != nil {
				wakes.SetWakeSink(func(ringID, eid, tid uint64) {})
				return fail(fmt.Errorf("os: gateway bulk setup %d: %w", i, err))
			}
		}
		if err := g.wave(g.takeWoken(), api.ParkedExitValue); err != nil {
			wakes.SetWakeSink(func(ringID, eid, tid uint64) {})
			return fail(fmt.Errorf("os: gateway bulk map: %w", err))
		}
	}
	return g, nil
}

// setupBulk gives one worker its bulk data plane: contiguous OS pages,
// a monitor grant between the OS and the worker, and the OS-side user
// mapping at the worker's distinct VA. The OS mapping is the Sanctum
// path (enclaves there resolve non-evrange VAs through the one OS page
// table); under Keystone the worker's own tables serve the VA after
// bulk_map and the OS mapping is inert.
func (g *Gateway) setupBulk(gw *gwWorker, idx int) error {
	pages := uint64(g.cfg.BulkPages)
	size := pages * mem.PageSize
	gw.bulkVA = g.cfg.BulkVABase + uint64(idx)*size
	if r := g.cfg.BulkRegion; r > 0 {
		off := uint64(idx) * size
		if off+size > g.o.M.DRAM.RegionSize() {
			return fmt.Errorf("os: bulk region %d too small for worker %d", r, idx)
		}
		gw.bulkPA = g.o.M.DRAM.Base(r) + off
		for p := uint64(0); p < pages; p++ {
			if err := g.o.MapUser(gw.bulkVA+p*mem.PageSize, gw.bulkPA+p*mem.PageSize, pt.R|pt.W|pt.U); err != nil {
				return err
			}
		}
	} else {
		for p := uint64(0); p < pages; p++ {
			pa, err := g.o.AllocPagePA()
			if err != nil {
				return err
			}
			if p == 0 {
				gw.bulkPA = pa
			} else if pa != gw.bulkPA+p*mem.PageSize {
				// The page allocator is a bump allocator, so sequential
				// allocations are contiguous unless it crossed into a
				// non-adjacent range.
				return fmt.Errorf("os: bulk buffer not contiguous at page %d", p)
			}
			if err := g.o.MapUser(gw.bulkVA+p*mem.PageSize, pa, pt.R|pt.W|pt.U); err != nil {
				return err
			}
		}
	}
	grant, err := g.o.AllocMetaPage()
	if err != nil {
		return err
	}
	if err := g.o.SM.BulkGrant(grant, gw.bulkPA, g.cfg.BulkPages, api.DomainOS, gw.w.EID); err != nil {
		g.o.ReleaseMetaPage(grant)
		return fmt.Errorf("os: bulk_grant: %w", err)
	}
	gw.grant = grant
	return nil
}

// sendBulkSetup sends the one-message VA handshake: the first (plain)
// message on a bulk worker's request ring carries the window VA in
// word 0. The measured template cannot embed per-worker addresses, so
// they travel over the ring the worker already trusts for requests —
// the VA is untrusted either way, since bulk_map validates it.
func (g *Gateway) sendBulkSetup(gw *gwWorker) error {
	var msg [api.RingMsgSize]byte
	binary.LittleEndian.PutUint64(msg[:], gw.bulkVA)
	if err := g.o.WriteOwned(g.sendPA, msg[:]); err != nil {
		return err
	}
	if _, err := g.o.SM.RingSend(gw.reqRing, g.sendPA, 1); err != nil {
		return fmt.Errorf("os: gateway bulk setup send: %w", err)
	}
	return nil
}

// newWorker forks one pool worker and wires its ring pair, unwinding
// its own partial state on failure so the caller sees either a fully
// wired worker or nothing.
func (g *Gateway) newWorker() (*gwWorker, error) {
	w, err := g.pool.Acquire(0)
	if err != nil {
		return nil, err
	}
	gw := &gwWorker{w: w}
	fail := func(err error) (*gwWorker, error) {
		if gw.reqRing != 0 && g.o.SM.RingDestroy(gw.reqRing) == nil {
			g.o.ReleaseMetaPage(gw.reqRing)
		}
		if gw.respRing != 0 && g.o.SM.RingDestroy(gw.respRing) == nil {
			g.o.ReleaseMetaPage(gw.respRing)
		}
		g.pool.Release(w)
		return nil, err
	}
	if len(w.TIDs) != 1 {
		return fail(fmt.Errorf("os: gateway template has %d threads, want 1", len(w.TIDs)))
	}
	if gw.reqRing, err = g.o.AllocMetaPage(); err != nil {
		return fail(err)
	}
	if err := g.o.SM.RingCreate(gw.reqRing, api.DomainOS, w.EID, g.cfg.RingCapacity); err != nil {
		gw.reqRing = 0
		return fail(fmt.Errorf("os: gateway request ring: %w", err))
	}
	if gw.respRing, err = g.o.AllocMetaPage(); err != nil {
		return fail(err)
	}
	if err := g.o.SM.RingCreate(gw.respRing, w.EID, api.DomainOS, g.cfg.RingCapacity); err != nil {
		gw.respRing = 0
		return fail(fmt.Errorf("os: gateway response ring: %w", err))
	}
	return gw, nil
}

// AddWorker forks one more worker from the pool and wires it into the
// serving set, running its startup wave (the worker discovers its
// rings and parks) before returning. This is the fleet rebalancer's
// warm-up hook: a drain target gains serving capacity before any
// traffic cuts over to it. The pool must still have clone regions.
func (g *Gateway) AddWorker() error {
	gw, err := g.newWorker()
	if err != nil {
		return fmt.Errorf("os: gateway add worker: %w", err)
	}
	// byEID is read by the wake sink under wokenMu; publish the new
	// worker under the same lock.
	g.wokenMu.Lock()
	g.byEID[gw.w.EID] = len(g.workers)
	g.workers = append(g.workers, gw)
	idx := len(g.workers) - 1
	g.wokenMu.Unlock()
	g.wireWorkerGauge(gw, idx)
	if g.cfg.BulkPages > 0 {
		if err := g.setupBulk(gw, idx); err != nil {
			return fmt.Errorf("os: gateway add worker bulk: %w", err)
		}
	}
	if err := g.wave([]int{idx}, api.ParkedExitValue); err != nil {
		return fmt.Errorf("os: gateway add worker startup: %w", err)
	}
	if g.cfg.BulkPages > 0 {
		if err := g.sendBulkSetup(gw); err != nil {
			return fmt.Errorf("os: gateway add worker bulk setup: %w", err)
		}
		if err := g.wave(g.takeWoken(), api.ParkedExitValue); err != nil {
			return fmt.Errorf("os: gateway add worker bulk map: %w", err)
		}
	}
	return nil
}

// wireWorkerGauge gives a freshly wired worker its per-worker queue
// depth gauge. In a fleet every shard shares one registry, so the
// gauge for worker idx aggregates across shards (Add-based deltas).
func (g *Gateway) wireWorkerGauge(gw *gwWorker, idx int) {
	if g.tel != nil {
		gw.depth = g.o.Telemetry.Gauge(fmt.Sprintf("os.gateway.worker%d.inflight", idx))
	}
}

// NumWorkers reports the current serving-set size.
func (g *Gateway) NumWorkers() int { return len(g.workers) }

// takeWoken drains the wake set in worker order (deterministic under
// the deterministic scheduler, where sinks fire synchronously on the
// sending goroutine).
func (g *Gateway) takeWoken() []int {
	g.wokenMu.Lock()
	idxs := make([]int, 0, len(g.woken))
	for i := range g.woken {
		idxs = append(idxs, i)
	}
	g.woken = make(map[int]bool)
	g.wokenMu.Unlock()
	sort.Ints(idxs)
	return idxs
}

// wave timeshares the given workers over the cores through the OS
// scheduler until each returns to the OS, requiring exit value want
// from every one (ParkedExitValue in steady state, WorkerExitStatus
// for the shutdown wave).
func (g *Gateway) wave(idxs []int, want uint64) error {
	if len(idxs) == 0 {
		return nil
	}
	tasks := make([]Task, 0, len(idxs))
	for _, i := range idxs {
		gw := g.workers[i]
		tasks = append(tasks, Task{EID: gw.w.EID, TID: gw.w.TIDs[0], MaxSteps: g.cfg.MaxStepsPerWake})
	}
	g.Waves++
	if t := g.tel; t != nil {
		t.waves.Inc(0)
	}
	results := g.o.NewScheduler(g.cfg.Sched).RunAll(tasks)
	for i, res := range results {
		if res.Err != nil {
			return fmt.Errorf("os: gateway worker %d: %w", idxs[i], res.Err)
		}
		if res.Reason != machine.StopReturnToOS || res.ExitValue != want {
			return fmt.Errorf("os: gateway worker %d stopped %v with a0=%#x, want a0=%#x",
				idxs[i], res.Reason, res.ExitValue, want)
		}
	}
	return nil
}

// sendChunk stages payloads[from:from+n] in the staging page and
// enqueues them on gw's request ring as one batched send. A worker
// holding a grant drains requests only with bulk_recv, so its chunks
// go out as bulk_send: the monitor validates every payload as a
// scatter-gather descriptor message against the grant before
// publishing any.
func (g *Gateway) sendChunk(gw *gwWorker, payloads [][]byte, from, n int) error {
	buf := make([]byte, n*api.RingMsgSize)
	for i := 0; i < n; i++ {
		p := payloads[from+i]
		if len(p) > api.RingMsgSize {
			return fmt.Errorf("os: gateway request %d larger than a ring message", from+i)
		}
		copy(buf[i*api.RingMsgSize:], p)
	}
	if err := g.o.WriteOwned(g.sendPA, buf); err != nil {
		return err
	}
	var sent int
	var err error
	if gw.grant != 0 {
		sent, err = g.o.SM.BulkSend(gw.reqRing, g.sendPA, n, gw.grant)
	} else {
		sent, err = g.o.SM.RingSend(gw.reqRing, g.sendPA, n)
	}
	if err != nil {
		return fmt.Errorf("os: gateway send: %w", err)
	}
	if sent != n {
		// Unreachable: inflight accounting keeps n within free slots.
		return fmt.Errorf("os: gateway send transferred %d of %d", sent, n)
	}
	for i := 0; i < n; i++ {
		gw.pending = append(gw.pending, from+i)
	}
	gw.inflight += n
	if t := g.tel; t != nil {
		if gw.stampHead == len(gw.stamps) {
			gw.stamps, gw.stampHead = gw.stamps[:0], 0
		}
		now := t.clock()
		for i := 0; i < n; i++ {
			gw.stamps = append(gw.stamps, now)
		}
		t.chunk.Observe(uint64(n))
		t.inflight.Add(int64(n))
		gw.depth.Add(int64(n))
	}
	return nil
}

// drain empties gw's response ring into out, verifying the monitor's
// sender stamp on every record, and returns how many responses landed.
// Responses are plain messages even from a bulk worker (a reply need
// not parse as descriptors), so one recv serves both.
func (g *Gateway) drain(gw *gwWorker, out [][]byte) (int, error) {
	total := 0
	// One clock read serves the whole drain: recv is a host-side
	// monitor call, so no modeled cycles retire while draining.
	var now uint64
	if g.tel != nil && gw.inflight > 0 {
		now = g.tel.clock()
	}
	for gw.inflight > 0 {
		n, err := g.o.SM.RingRecv(gw.respRing, g.recvPA, g.cfg.Batch)
		if errors.Is(err, api.ErrInvalidState) {
			break // empty
		}
		if err != nil {
			return total, fmt.Errorf("os: gateway recv: %w", err)
		}
		records, err := g.o.ReadOwned(g.recvPA, n*api.RingRecordSize)
		if err != nil {
			return total, err
		}
		for i := 0; i < n; i++ {
			rec := records[i*api.RingRecordSize : (i+1)*api.RingRecordSize]
			var meas [32]byte
			copy(meas[:], rec)
			sender := binary.LittleEndian.Uint64(rec[32:40])
			if sender != gw.w.EID || meas != g.pool.Template.Measurement {
				return total, fmt.Errorf("os: gateway response stamp mismatch: sender %#x meas %x",
					sender, meas[:4])
			}
			if len(gw.pending) == 0 {
				return total, fmt.Errorf("os: gateway response with no pending request")
			}
			idx := gw.pending[0]
			gw.pending = gw.pending[1:]
			gw.inflight--
			if t := g.tel; t != nil {
				t.reqCycles.Observe(now - gw.stamps[gw.stampHead])
				gw.stampHead++
			}
			payload := make([]byte, api.RingMsgSize)
			copy(payload, rec[api.RingStampSize:])
			out[idx] = payload
			total++
		}
	}
	// The in-flight gauges fold the whole drain in one update each.
	if t := g.tel; t != nil && total > 0 {
		t.inflight.Add(-int64(total))
		gw.depth.Add(-int64(total))
	}
	return total, nil
}

// Process serves a batch of host requests end to end and returns one
// api.RingMsgSize response per request, in request order. Requests are
// distributed across the workers by the configured Router (default
// round-robin) in chunks of up to Batch messages per ring send; each
// iteration sends what fits, runs one scheduler wave over the workers
// the monitor woke, and drains their response rings. Under the
// deterministic scheduler the whole run — scheduling, preemptions,
// ring traffic — is bit-reproducible.
func (g *Gateway) Process(payloads [][]byte) ([][]byte, error) {
	return g.ProcessKeyed(nil, payloads)
}

// ProcessKeyed is Process with an explicit routing key per request —
// the fleet's per-shard serving entry point, where keys are session
// ids and the KeyAffinity router keeps a session on one worker. A nil
// keys slice routes every request with key 0 (round-robin ignores the
// key entirely). Response matching is unchanged: FIFO per worker,
// every record's monitor stamp verified against the worker identity
// and the pool template measurement.
func (g *Gateway) ProcessKeyed(keys []uint64, payloads [][]byte) ([][]byte, error) {
	if keys != nil && len(keys) != len(payloads) {
		return nil, fmt.Errorf("os: gateway: %d keys for %d payloads", len(keys), len(payloads))
	}
	return g.serve(g.cfg.Router, keys, payloads)
}

// serve is the gateway's one serving loop, behind ProcessKeyed and
// ProcessBulk: send every chunk that fits to the worker router picks,
// run one scheduler wave over the workers the sends woke, drain their
// response rings, and repeat until every request has its response.
func (g *Gateway) serve(router Router, keys []uint64, payloads [][]byte) ([][]byte, error) {
	out := make([][]byte, len(payloads))
	tr := g.trace
	g.trace = nil
	if tr != nil && (tr.idx < 0 || tr.idx >= len(payloads)) {
		tr = nil
	}
	cursor, done := 0, 0
	space := func(i int) int { return g.cfg.RingCapacity - g.workers[i].inflight }
	for done < len(payloads) {
		// Assign as many requests as ring capacity allows.
		for cursor < len(payloads) {
			var key uint64
			if keys != nil {
				key = keys[cursor]
			}
			i := router.Pick(key, len(g.workers), space)
			if i < 0 {
				break // every ring full: serve a wave first
			}
			gw := g.workers[i]
			n := g.cfg.Batch
			if s := space(i); n > s {
				n = s
			}
			if rem := len(payloads) - cursor; n > rem {
				n = rem
			}
			if keys != nil {
				// A chunk stays within one routing key: the same key
				// always routes the same way, so a contiguous same-key
				// run is the unit that can share one batched send.
				run := 1
				for run < n && keys[cursor+run] == key {
					run++
				}
				n = run
			}
			if err := g.sendChunk(gw, payloads, cursor, n); err != nil {
				return nil, err
			}
			if tr != nil && tr.worker < 0 && tr.idx >= cursor && tr.idx < cursor+n {
				// The traced request just went out: open its dispatch
				// span and record the (host-side, hence instant) send.
				tr.worker = i
				tr.span = tr.t.Begin(tr.parent, "gateway", fmt.Sprintf("dispatch worker=%d", i))
				tr.t.End(tr.t.Begin(tr.span, "ring", fmt.Sprintf("send n=%d", n)))
			}
			cursor += n
		}
		// The sends woke every parked worker that got traffic; run them.
		woken := g.takeWoken()
		if len(woken) == 0 {
			return nil, fmt.Errorf("os: gateway stalled: %d responses outstanding, no worker woken",
				len(payloads)-done)
		}
		workSpan := -1
		if tr != nil && tr.worker >= 0 && !tr.done && containsInt(woken, tr.worker) {
			// This wave runs the traced worker's enclave: the only part
			// of the journey where modeled cycles actually retire.
			workSpan = tr.t.Begin(tr.span, "worker", "execute")
		}
		if err := g.wave(woken, api.ParkedExitValue); err != nil {
			return nil, err
		}
		if workSpan >= 0 {
			tr.t.End(workSpan)
		}
		for _, i := range woken {
			n, err := g.drain(g.workers[i], out)
			if err != nil {
				return nil, err
			}
			done += n
			if tr != nil && !tr.done && tr.worker == i && out[tr.idx] != nil {
				tr.t.End(tr.t.Begin(tr.span, "ring", "recv"))
				tr.t.End(tr.t.Begin(tr.span, "gateway", "response"))
				tr.t.End(tr.span)
				tr.done = true
			}
		}
	}
	g.Served += len(payloads)
	if t := g.tel; t != nil {
		t.served.Add(0, uint64(len(payloads)))
	}
	return out, nil
}

// BulkBuffer returns worker i's bulk grant id, buffer base PA and byte
// size (zeroes when the bulk plane is off). The host stages request
// bytes at the PA with WriteOwned, names spans of them in descriptor
// messages (api.EncodeBulkDescs), and reads results back with
// ReadOwned — the data itself never passes through the monitor.
func (g *Gateway) BulkBuffer(i int) (grant, basePA uint64, size int) {
	if i < 0 || i >= len(g.workers) || g.cfg.BulkPages == 0 {
		return 0, 0, 0
	}
	gw := g.workers[i]
	return gw.grant, gw.bulkPA, g.cfg.BulkPages * mem.PageSize
}

// ProcessBulk serves a batch of scatter-gather descriptor requests
// through worker i's bulk grant, returning one response message per
// request in request order with every monitor stamp verified — the
// zero-copy analogue of Process. Requests all go to the one worker
// whose buffer holds the data (payload placement is the caller's job,
// so routing is too); batching, waves and FIFO response matching are
// Process's own serving loop.
func (g *Gateway) ProcessBulk(worker int, payloads [][]byte) ([][]byte, error) {
	if worker < 0 || worker >= len(g.workers) {
		return nil, fmt.Errorf("os: gateway: no worker %d", worker)
	}
	if g.workers[worker].grant == 0 {
		return nil, fmt.Errorf("os: gateway: bulk plane not configured")
	}
	return g.serve(pinned(worker), nil, payloads)
}

// pinned is ProcessBulk's router: every chunk goes to the one worker.
type pinned int

// Pick returns the pinned worker while its request ring has space.
func (p pinned) Pick(_ uint64, _ int, space func(int) int) int {
	if space(int(p)) > 0 {
		return int(p)
	}
	return -1
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Close shuts the service down: destroy every ring (waking the parked
// workers into failing parks — their shutdown signal), run the final
// wave in which each worker exits cleanly, and release the workers
// back to the pool. Teardown is best-effort — every step runs and the
// first error is the one reported — so a failed wave still unhooks
// the wake sink and returns what it can to the pool. The gateway is
// unusable afterwards; the pool remains open for the caller to Close.
func (g *Gateway) Close() error {
	var firstErr error
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	for _, gw := range g.workers {
		if err := g.o.SM.RingDestroy(gw.reqRing); err == nil {
			g.o.ReleaseMetaPage(gw.reqRing)
		} else {
			keep(fmt.Errorf("os: gateway destroy request ring: %w", err))
		}
		if err := g.o.SM.RingDestroy(gw.respRing); err == nil {
			g.o.ReleaseMetaPage(gw.respRing)
		} else {
			keep(fmt.Errorf("os: gateway destroy response ring: %w", err))
		}
		// After both rings are gone no descriptor into the grant can be
		// in flight, so the revoke cannot be refused.
		if gw.grant != 0 {
			if err := g.o.SM.BulkRevoke(gw.grant); err == nil {
				g.o.ReleaseMetaPage(gw.grant)
			} else {
				keep(fmt.Errorf("os: gateway bulk revoke: %w", err))
			}
		}
	}
	keep(g.wave(g.takeWoken(), enclaveExitStatus))
	g.wakes.SetWakeSink(func(ringID, eid, tid uint64) {})
	for i, gw := range g.workers {
		if err := g.pool.Release(gw.w); err != nil {
			keep(fmt.Errorf("os: gateway release worker %d: %w", i, err))
		}
	}
	return firstErr
}

// enclaveExitStatus mirrors internal/enclaves.WorkerExitStatus without
// importing the enclave programs into the OS model.
const enclaveExitStatus = 0x42
