package os

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// ring; the gateway queues routed requests per worker and, before each
// wave, sends every worker's queue in batched ring sends; the
// monitor's park/wake protocol tells the gateway which workers became
// runnable (the wake sink, which the monitor calls on each wake — no
// OS polling of idle workers). Woken workers are then timeshared over
// the machine's cores by the existing OS scheduler for one wave; each
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

	// stage and recv are the host-side buffers behind every ring send
	// and recv: up to Batch messages staged for one send, up to Batch
	// records read back from one recv. The gateway owns both; nothing
	// returned to a caller points into them.
	stage []byte
	recv  []byte

	// sched is the per-wave OS scheduler, one for the gateway's
	// lifetime; tasks is the reused task list of a wave; space is
	// spaceOf bound once, the free-slot function routers are handed.
	sched *Scheduler
	tasks []Task
	space func(i int) int

	// woken[i] marks worker i woken by the monitor; wokenIdx is the
	// reused buffer takeWoken returns. The sink runs on whatever
	// goroutine drains the posted IPI — during gateway sends the cores
	// are idle, so in practice the gateway's own — but it is locked for
	// the parallel-scheduler case regardless.
	wokenMu  sync.Mutex
	woken    []bool
	wokenIdx []int

	// Served and Waves count gateway activity. They are the only copy:
	// the registry's os.gateway.served and os.gateway.waves read them.
	Served int
	Waves  int

	// tel caches the gateway's instrument handles (nil when the OS has
	// no registry); trace is an armed per-request trace consumed by
	// the next serving call.
	tel   *gwTelemetry
	trace *gwTrace
}

// gwTelemetry is the gateway's cached instrument set; stamps are
// modeled cycles from the machine, never wall time. The bulk
// instruments carry the monitor's names: what bulk_send granted
// passage to is counted here, where the descriptor messages are staged.
type gwTelemetry struct {
	clock     func() uint64
	chunk     *telemetry.Histogram // requests per batched ring send
	reqCycles *telemetry.Histogram // per-request end-to-end cycles
	inflight  *telemetry.Gauge     // outstanding requests, all workers
	bulkBytes *telemetry.Counter   // bytes named by sent descriptors
	bulkDescs *telemetry.Histogram // descriptors per sent message
}

// bulkSent counts the descriptors of sent descriptor messages and the
// bytes they name. The monitor accepted every message, so each parses
// (api.EncodeBulkDescs's layout).
func (t *gwTelemetry) bulkSent(msgs []byte) {
	var total uint64
	for ; len(msgs) >= api.RingMsgSize; msgs = msgs[api.RingMsgSize:] {
		n := binary.LittleEndian.Uint64(msgs[8:])
		for i := uint64(0); i < n; i++ {
			total += binary.LittleEndian.Uint64(msgs[24+16*i:])
		}
		t.bulkDescs.Observe(n)
	}
	t.bulkBytes.Add(0, total)
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
// gateway runs a bulk data plane, its grant and shared buffer). A zero
// ring or grant id means that object was never created.
type gwWorker struct {
	w        *Worker
	reqRing  uint64
	respRing uint64
	grant    uint64 // bulk grant id (0 when bulk is off)
	bulkPA   uint64 // bulk buffer base PA
	bulkVA   uint64 // where this worker bulk_maps the buffer

	// fifo[head:] are the requests queued and not yet answered, oldest
	// first; the last unsent of them are queued but not yet sent. A
	// queue onto an empty FIFO rewinds it, so the backing array is
	// reused across waves instead of sliding. depth is this worker's
	// queue-depth gauge.
	fifo   []sentReq
	head   int
	unsent int
	depth  *telemetry.Gauge
}

// sentReq is one queued request: its index in the serving call (-1 for
// an orphan — sent by a call that then failed) and its send-time cycle
// stamp (zero when telemetry is off).
type sentReq struct {
	idx   int
	stamp uint64
}

// inflight reports the worker's requests queued but not yet answered,
// sent or not: the request-ring slots they hold or will hold.
func (gw *gwWorker) inflight() int { return len(gw.fifo) - gw.head }

// enqueue queues requests [from, from+n) of the serving call on the
// worker's FIFO as unsent entries; the next flush sends them.
func (gw *gwWorker) enqueue(from, n int) {
	if gw.head == len(gw.fifo) {
		gw.fifo, gw.head = gw.fifo[:0], 0
	}
	for i := from; i < from+n; i++ {
		gw.fifo = append(gw.fifo, sentReq{idx: i})
	}
	gw.unsent += n
}

// The gateway's fixed shape; no caller ever varied it.
const (
	// ringCapacity is each request and response ring's capacity in
	// messages.
	ringCapacity = 64
	// maxStepsPerWake bounds a worker's instructions per wave; a worker
	// still running past it is forced off and reported as an error.
	maxStepsPerWake = 5_000_000
	// bulkVABase is where worker 0 maps its bulk buffer; worker i maps
	// at bulkVABase + i·BulkPages·4096. Every worker's window must fit
	// the 2 MiB leaf BulkSpec's shared window allocates: under Sanctum
	// all workers resolve these VAs through the one OS page table, which
	// is why the addresses differ per worker in the first place.
	bulkVABase = 0x50001000
)

// GatewayConfig configures NewGateway. Zero fields take defaults.
type GatewayConfig struct {
	// Workers is the number of pool workers to acquire (default 2).
	Workers int
	// Batch bounds the messages per ring send/recv the gateway issues,
	// and so the requests per routed chunk (default 8, capped at
	// api.RingMaxBatch).
	Batch int
	// Sched configures the per-wave OS scheduler (mode, quantum).
	Sched SchedConfig
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
	// BulkRegion is the free OS-owned DRAM region whose pages back the
	// bulk buffers (worker i at offset i·BulkPages·4096); required with
	// BulkPages. While any grant lives, the page pins make the monitor
	// refuse to scrub the region for reassignment.
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
	if cfg.Batch <= 0 {
		cfg.Batch = 8
	}
	if cfg.Batch > api.RingMaxBatch {
		cfg.Batch = api.RingMaxBatch
	}
	if cfg.Router == nil {
		cfg.Router = &RoundRobin{}
	}
	if cfg.BulkPages > api.BulkMaxPages {
		cfg.BulkPages = api.BulkMaxPages
	}
}

// NewGateway forks cfg.Workers ring-serving workers from the pool's
// template, registers the park/wake sink, and wires the workers in
// (addWorkers). The pool's template must be a single-thread ring
// server (internal/enclaves.RingEchoServer / RingKVServer). A failed
// constructor unwinds what it built, so retrying gateway construction
// leaks neither pool capacity nor SM metadata pages.
func NewGateway(o *OS, wakes WakeSource, pool *Pool, cfg GatewayConfig) (*Gateway, error) {
	cfg.fill()
	if cfg.BulkPages > 0 && cfg.BulkRegion <= 0 {
		return nil, fmt.Errorf("os: gateway: BulkPages needs a BulkRegion")
	}
	g := &Gateway{
		o:     o,
		pool:  pool,
		wakes: wakes,
		cfg:   cfg,
		byEID: make(map[uint64]int),
		stage: make([]byte, cfg.Batch*api.RingMsgSize),
		recv:  make([]byte, cfg.Batch*api.RingRecordSize),
		sched: o.NewScheduler(cfg.Sched),
	}
	g.space = g.spaceOf
	if reg := o.Telemetry; reg != nil {
		g.tel = &gwTelemetry{
			clock:     o.M.CycleNow,
			chunk:     reg.Histogram("os.gateway.chunk.size"),
			reqCycles: reg.Histogram("os.gateway.request.cycles"),
			inflight:  reg.Gauge("os.gateway.inflight"),
			bulkBytes: reg.Counter("sm.bulk.bytes"),
			bulkDescs: reg.Histogram("sm.bulk.descs"),
		}
		reg.RegisterFunc("os.gateway.served", func() uint64 { return uint64(g.Served) })
		reg.RegisterFunc("os.gateway.waves", func() uint64 { return uint64(g.Waves) })
	}
	var err error
	if g.sendPA, err = o.AllocPagePA(); err != nil {
		return nil, err
	}
	if g.recvPA, err = o.AllocPagePA(); err != nil {
		return nil, err
	}
	wakes.SetWakeSink(g.wake)
	if err := g.addWorkers(cfg.Workers); err != nil {
		wakes.SetWakeSink(func(ringID, eid, tid uint64) {})
		return nil, err
	}
	return g, nil
}

// AddWorker forks one more worker from the pool and wires it into the
// serving set, running its startup wave (the worker discovers its
// rings and parks) before returning. This is the fleet rebalancer's
// warm-up hook: a drain target gains serving capacity before any
// traffic cuts over to it. The pool must still have clone regions. A
// failed AddWorker leaves the serving set as it was.
func (g *Gateway) AddWorker() error {
	if err := g.addWorkers(1); err != nil {
		return fmt.Errorf("os: gateway add worker: %w", err)
	}
	return nil
}

// addWorkers is the one path that wires workers into the serving set:
// fork each from the pool with its ring pair, give each its bulk
// buffer and grant, run the startup wave in which every new worker
// discovers its rings and parks, then the bulk VA handshake. On
// failure it unwires every worker it added, so the serving set is
// unchanged; the original error is the one reported.
func (g *Gateway) addWorkers(n int) (err error) {
	base := len(g.workers)
	defer func() {
		if err != nil {
			g.unwire(base)
		}
	}()
	for i := base; i < base+n; i++ {
		if err := g.newWorker(); err != nil {
			return fmt.Errorf("os: gateway worker %d: %w", i, err)
		}
	}
	// Bulk buffers and grants must exist before the startup wave: the
	// workers discover their grants in it.
	bulk := g.cfg.BulkPages > 0
	if bulk {
		for i := base; i < base+n; i++ {
			if err := g.setupBulk(g.workers[i], i); err != nil {
				return fmt.Errorf("os: gateway bulk worker %d: %w", i, err)
			}
		}
	}
	fresh := make([]int, 0, n)
	for i := base; i < base+n; i++ {
		fresh = append(fresh, i)
	}
	if err := g.wave(fresh, api.ParkedExitValue); err != nil {
		return fmt.Errorf("os: gateway startup: %w", err)
	}
	if !bulk {
		return nil
	}
	// Second boot phase for bulk workers: each is parked waiting for
	// the setup message naming its window VA; send it, then run the
	// wave in which every worker bulk_maps its buffer and parks serving.
	for i := base; i < base+n; i++ {
		if err := g.sendBulkSetup(g.workers[i]); err != nil {
			return fmt.Errorf("os: gateway bulk setup %d: %w", i, err)
		}
	}
	if err := g.wave(g.takeWoken(base), api.ParkedExitValue); err != nil {
		return fmt.Errorf("os: gateway bulk map: %w", err)
	}
	return nil
}

// newWorker forks one pool worker, publishes it in the serving set
// (the wake sink reads byEID, so under the sink's lock), and creates
// its ring pair. A failure leaves the worker published with whatever
// it got; the caller's unwire tears it down.
func (g *Gateway) newWorker() error {
	w, err := g.pool.Acquire(0)
	if err != nil {
		return err
	}
	gw := &gwWorker{w: w}
	g.wokenMu.Lock()
	idx := len(g.workers)
	g.byEID[w.EID] = idx
	g.workers = append(g.workers, gw)
	g.woken = append(g.woken, false)
	g.wokenMu.Unlock()
	if len(w.TIDs) != 1 {
		return fmt.Errorf("os: gateway template has %d threads, want 1", len(w.TIDs))
	}
	if gw.reqRing, err = g.newRing(api.DomainOS, w.EID); err != nil {
		return fmt.Errorf("os: gateway request ring: %w", err)
	}
	if gw.respRing, err = g.newRing(w.EID, api.DomainOS); err != nil {
		return fmt.Errorf("os: gateway response ring: %w", err)
	}
	// In a fleet every shard shares one registry, so the gauge for
	// worker idx aggregates across shards (Add-based deltas).
	if g.tel != nil {
		gw.depth = g.o.Telemetry.Gauge(fmt.Sprintf("os.gateway.worker%d.inflight", idx))
	}
	return nil
}

// newRing creates one ring on a fresh metadata page, returning the
// page to the allocator if the monitor refuses the ring.
func (g *Gateway) newRing(producer, consumer uint64) (uint64, error) {
	id, err := g.o.AllocMetaPage()
	if err != nil {
		return 0, err
	}
	if err := g.o.SM.RingCreate(id, producer, consumer, ringCapacity); err != nil {
		g.o.ReleaseMetaPage(id)
		return 0, err
	}
	return id, nil
}

// setupBulk gives one worker its bulk data plane: its span of the
// bulk region, a monitor grant between the OS and the worker, and the
// OS-side user mapping at the worker's distinct VA. The OS mapping is
// the Sanctum path (enclaves there resolve non-evrange VAs through the
// one OS page table); under Keystone the worker's own tables serve the
// VA after bulk_map and the OS mapping is inert.
func (g *Gateway) setupBulk(gw *gwWorker, idx int) error {
	pages := uint64(g.cfg.BulkPages)
	size := pages * mem.PageSize
	off := uint64(idx) * size
	if off+size > g.o.M.DRAM.RegionSize() {
		return fmt.Errorf("os: bulk region %d too small for worker %d", g.cfg.BulkRegion, idx)
	}
	gw.bulkVA = bulkVABase + off
	gw.bulkPA = g.o.M.DRAM.Base(g.cfg.BulkRegion) + off
	for p := uint64(0); p < pages; p++ {
		if err := g.o.MapUser(gw.bulkVA+p*mem.PageSize, gw.bulkPA+p*mem.PageSize, pt.R|pt.W|pt.U); err != nil {
			return err
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

// unwire tears down workers[from:] and removes them from the serving
// set — Close's whole set, or what a failed addWorkers added: destroy
// each ring pair (waking the parked workers into failing parks, their
// shutdown signal), revoke each grant, run the wave in which the woken
// workers exit cleanly, and release every worker back to the pool.
// Best-effort — every step runs and the first error is the one
// reported — so a failed wave still returns what it can to the pool.
func (g *Gateway) unwire(from int) error {
	var firstErr error
	keep := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
		}
	}
	gone := g.workers[from:]
	for _, gw := range gone {
		if gw.reqRing != 0 {
			if err := g.o.SM.RingDestroy(gw.reqRing); err == nil {
				g.o.ReleaseMetaPage(gw.reqRing)
			} else {
				keep(fmt.Errorf("os: gateway destroy request ring: %w", err))
			}
		}
		if gw.respRing != 0 {
			if err := g.o.SM.RingDestroy(gw.respRing); err == nil {
				g.o.ReleaseMetaPage(gw.respRing)
			} else {
				keep(fmt.Errorf("os: gateway destroy response ring: %w", err))
			}
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
	keep(g.wave(g.takeWoken(from), enclaveExitStatus))
	for i, gw := range gone {
		if err := g.pool.Release(gw.w); err != nil {
			keep(fmt.Errorf("os: gateway release worker %d: %w", from+i, err))
		}
	}
	g.wokenMu.Lock()
	for _, gw := range gone {
		delete(g.byEID, gw.w.EID)
	}
	g.workers = g.workers[:from]
	g.woken = g.woken[:from]
	g.wokenMu.Unlock()
	return firstErr
}

// wake is the gateway's park/wake sink: it marks the woken worker.
func (g *Gateway) wake(ringID, eid, tid uint64) {
	g.wokenMu.Lock()
	if i, known := g.byEID[eid]; known {
		g.woken[i] = true
	}
	g.wokenMu.Unlock()
}

// NumWorkers reports the current serving-set size.
func (g *Gateway) NumWorkers() int { return len(g.workers) }

// takeWoken drains the wake marks of workers from onward, returning
// their indexes in worker order (deterministic under the deterministic
// scheduler, where sinks fire synchronously on the sending goroutine).
// The result is valid until the next call.
func (g *Gateway) takeWoken(from int) []int {
	g.wokenMu.Lock()
	idxs := g.wokenIdx[:0]
	for i := from; i < len(g.woken); i++ {
		if g.woken[i] {
			g.woken[i] = false
			idxs = append(idxs, i)
		}
	}
	g.wokenIdx = idxs
	g.wokenMu.Unlock()
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
	g.tasks = g.tasks[:0]
	for _, i := range idxs {
		gw := g.workers[i]
		g.tasks = append(g.tasks, Task{EID: gw.w.EID, TID: gw.w.TIDs[0], MaxSteps: maxStepsPerWake})
	}
	g.Waves++
	results := g.sched.RunAll(g.tasks)
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

// spaceOf reports worker i's free request-ring slots: capacity less
// every request queued on it, sent or not.
func (g *Gateway) spaceOf(i int) int { return ringCapacity - g.workers[i].inflight() }

// flush sends every worker's unsent requests in FIFO order, in ring
// sends of at most Batch messages staged through the gateway's one
// staging buffer, so a worker's ring holds exactly what it would have
// held had each chunk gone out when it was routed. Host-side sends
// retire no modeled cycles, so one clock read stamps the whole flush.
func (g *Gateway) flush(payloads [][]byte) error {
	var now uint64
	if g.tel != nil {
		now = g.tel.clock()
	}
	for _, gw := range g.workers {
		for gw.unsent > 0 {
			pending := gw.fifo[len(gw.fifo)-gw.unsent:][:min(gw.unsent, g.cfg.Batch)]
			for j := range pending {
				pending[j].stamp = now
				msg := g.stage[j*api.RingMsgSize : (j+1)*api.RingMsgSize]
				clear(msg[copy(msg, payloads[pending[j].idx]):])
			}
			sent, err := g.send(gw, len(pending))
			gw.unsent -= sent
			if t := g.tel; t != nil && sent > 0 {
				t.chunk.Observe(uint64(sent))
				t.inflight.Add(int64(sent))
				gw.depth.Add(int64(sent))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// send enqueues the n staged messages on gw's request ring as one
// batched send and reports how many went out. A worker holding a grant
// drains requests only with bulk_recv, so its sends go out as
// bulk_send: the monitor validates every payload as a scatter-gather
// descriptor message against the grant before publishing any.
func (g *Gateway) send(gw *gwWorker, n int) (int, error) {
	if err := g.o.WriteOwned(g.sendPA, g.stage[:n*api.RingMsgSize]); err != nil {
		return 0, err
	}
	var sent int
	var err error
	if gw.grant != 0 {
		sent, err = g.o.SM.BulkSend(gw.reqRing, g.sendPA, n, gw.grant)
	} else {
		sent, err = g.o.SM.RingSend(gw.reqRing, g.sendPA, n)
	}
	if err != nil {
		return 0, fmt.Errorf("os: gateway send: %w", err)
	}
	if g.tel != nil && gw.grant != 0 {
		g.tel.bulkSent(g.stage[:sent*api.RingMsgSize])
	}
	if sent != n {
		// Unreachable: inflight accounting keeps n within free slots.
		return sent, fmt.Errorf("os: gateway send transferred %d of %d", sent, n)
	}
	return sent, nil
}

// abandon ends a failed serving call. Requests it queued but never
// sent are dropped; the ones already in a ring become orphans, whose
// responses a later drain consumes and discards, so they never count
// toward, or land in, a later call.
func (g *Gateway) abandon() {
	for _, gw := range g.workers {
		gw.fifo = gw.fifo[:len(gw.fifo)-gw.unsent]
		gw.unsent = 0
		for i := gw.head; i < len(gw.fifo); i++ {
			gw.fifo[i].idx = -1
		}
	}
}

// drain empties gw's response ring, verifying the monitor's sender
// stamp on every record, and returns how many responses of this call
// landed: response k goes into arena[k·RingMsgSize:], capacity-capped,
// and out[k] refers to it. Responses are plain messages even from a
// bulk worker (a reply need not parse as descriptors), so one recv
// serves both.
func (g *Gateway) drain(gw *gwWorker, out [][]byte, arena []byte) (int, error) {
	total, answered := 0, 0 // records consumed; responses for this call
	// One clock read serves the whole drain: recv is a host-side
	// monitor call, so no modeled cycles retire while draining.
	var now uint64
	if g.tel != nil && gw.inflight() > 0 {
		now = g.tel.clock()
	}
	meas := &g.pool.Template.Measurement
	for gw.inflight() > 0 {
		n, err := g.o.SM.RingRecv(gw.respRing, g.recvPA, g.cfg.Batch)
		if errors.Is(err, api.ErrInvalidState) {
			break // empty
		}
		if err != nil {
			return answered, fmt.Errorf("os: gateway recv: %w", err)
		}
		records := g.recv[:n*api.RingRecordSize]
		if err := g.o.readOwnedInto(g.recvPA, records); err != nil {
			return answered, err
		}
		for i := 0; i < n; i++ {
			rec := records[i*api.RingRecordSize : (i+1)*api.RingRecordSize]
			sender := binary.LittleEndian.Uint64(rec[32:40])
			if sender != gw.w.EID || [32]byte(rec[:32]) != *meas {
				return answered, fmt.Errorf("os: gateway response stamp mismatch: sender %#x meas %x",
					sender, rec[:4])
			}
			if gw.inflight() == 0 {
				return answered, fmt.Errorf("os: gateway response with no pending request")
			}
			req := gw.fifo[gw.head]
			gw.head++
			total++
			if req.idx < 0 {
				continue // an orphan of a failed call: discarded
			}
			if t := g.tel; t != nil {
				t.reqCycles.Observe(now - req.stamp)
			}
			end := (req.idx + 1) * api.RingMsgSize
			resp := arena[end-api.RingMsgSize : end : end]
			copy(resp, rec[api.RingStampSize:])
			out[req.idx] = resp
			answered++
		}
	}
	// The in-flight gauges fold the whole drain in one update each.
	if t := g.tel; t != nil && total > 0 {
		t.inflight.Add(-int64(total))
		gw.depth.Add(-int64(total))
	}
	return answered, nil
}

// Process serves a batch of host requests end to end and returns one
// api.RingMsgSize response per request, in request order. Requests are
// distributed across the workers by the configured Router (default
// round-robin) in chunks of up to Batch requests; each iteration
// queues what fits, sends each worker's queue in ring sends of up to
// Batch messages, runs one scheduler wave over the workers the monitor
// woke, and drains their response rings. The responses are
// capacity-capped slices of one arena allocated for the call; they
// belong to the caller. A payload longer than a ring message fails the
// call before anything is sent. Under the deterministic scheduler the
// whole run — scheduling, preemptions, ring traffic — is
// bit-reproducible.
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
// ProcessBulk: queue every chunk that fits on the worker router picks,
// send the queues, run one scheduler wave over the workers the sends
// woke, drain their response rings, and repeat until every request has
// its response. A call that fails leaves orphans, never dangling
// requests (abandon).
func (g *Gateway) serve(router Router, keys []uint64, payloads [][]byte) (_ [][]byte, err error) {
	tr := g.trace
	g.trace = nil
	if tr != nil && (tr.idx < 0 || tr.idx >= len(payloads)) {
		tr = nil
	}
	for i, p := range payloads {
		if len(p) > api.RingMsgSize {
			return nil, fmt.Errorf("os: gateway request %d larger than a ring message", i)
		}
	}
	out := make([][]byte, len(payloads))
	arena := make([]byte, len(payloads)*api.RingMsgSize)
	defer func() {
		if err != nil {
			g.abandon()
		}
	}()
	cursor, done := 0, 0
	for done < len(payloads) {
		// Queue as many requests as ring capacity allows.
		for cursor < len(payloads) {
			var key uint64
			if keys != nil {
				key = keys[cursor]
			}
			i := router.Pick(key, len(g.workers), g.space)
			if i < 0 {
				break // every ring full: serve a wave first
			}
			n := min(g.cfg.Batch, g.space(i), len(payloads)-cursor)
			if keys != nil {
				// A chunk stays within one routing key: the same key
				// always routes the same way, so a contiguous same-key
				// run is the unit the router places.
				run := 1
				for run < n && keys[cursor+run] == key {
					run++
				}
				n = run
			}
			g.workers[i].enqueue(cursor, n)
			if tr != nil && tr.worker < 0 && tr.idx >= cursor && tr.idx < cursor+n {
				// The traced request is queued: open its dispatch span
				// and record its send, which the flush below issues at
				// this same cycle (host-side calls retire none).
				tr.worker = i
				tr.span = tr.t.Begin(tr.parent, "gateway", fmt.Sprintf("dispatch worker=%d", i))
				tr.t.End(tr.t.Begin(tr.span, "ring", fmt.Sprintf("send n=%d", n)))
			}
			cursor += n
		}
		if err := g.flush(payloads); err != nil {
			return nil, err
		}
		// The sends woke every parked worker that got traffic; run them.
		woken := g.takeWoken(0)
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
			n, err := g.drain(g.workers[i], out, arena)
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

// Close shuts the service down: unwire every worker — rings destroyed,
// the final wave in which each worker exits cleanly, workers released
// back to the pool — then unhook the wake sink. Teardown is
// best-effort and the first error is the one reported. The gateway
// serves nothing afterwards; the pool remains open for the caller to
// Close.
func (g *Gateway) Close() error {
	err := g.unwire(0)
	g.wakes.SetWakeSink(func(ringID, eid, tid uint64) {})
	return err
}

// enclaveExitStatus mirrors internal/enclaves.WorkerExitStatus without
// importing the enclave programs into the OS model.
const enclaveExitStatus = 0x42
