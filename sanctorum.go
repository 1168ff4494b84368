// Package sanctorum is the public facade of the Sanctorum
// reproduction: one call builds a simulated enclave-capable machine —
// cores, caches, DRAM regions or PMP, secure-booted security monitor,
// untrusted OS — on any of the three platform backends the paper
// discusses (Sanctum, Keystone, and an insecure baseline).
//
//	sys, _ := sanctorum.NewSystem(sanctorum.Options{Kind: sanctorum.Sanctum})
//	spec, _ := enclaves.Spec(layout, enclaves.Adder(layout), nil, regions, shared)
//	built, _ := sys.BuildEnclave(spec)
//	res, _ := sys.Enter(0, built.EID, built.TIDs[0], 1_000_000)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-artifact index.
package sanctorum

import (
	"crypto/ed25519"
	"fmt"

	"sanctorum/internal/fleet"
	"sanctorum/internal/hw/dram"
	"sanctorum/internal/hw/machine"
	"sanctorum/internal/os"
	"sanctorum/internal/platform/baseline"
	"sanctorum/internal/platform/keystone"
	"sanctorum/internal/platform/sanctum"
	"sanctorum/internal/sm"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/sm/boot"
	"sanctorum/internal/smcall"
	"sanctorum/internal/telemetry"
	"sanctorum/internal/telemetry/smtap"
)

// Kind selects the isolation backend.
type Kind = machine.IsolationKind

// Platform kinds.
const (
	// Baseline is the insecure control: no physical isolation.
	Baseline = machine.IsolationNone
	// Sanctum uses DRAM regions, a page-colored LLC and private page
	// walks (paper §VII-A).
	Sanctum = machine.IsolationSanctum
	// Keystone uses RISC-V PMP with an unpartitioned LLC (§VII-B).
	Keystone = machine.IsolationKeystone
)

// Options configures NewSystem. The zero value of every field has a
// sensible default.
type Options struct {
	Kind         Kind
	Cores        int    // default 2
	RegionShift  uint   // log2 region size; default 17 (128 KiB, 32 pages)
	RegionCount  int    // default 64 (Sanctum's region count)
	MonitorImage []byte // measured by secure boot; default a fixed image
	Seed         []byte // deterministic entropy seed; default fixed
	// SigningMeasurement is the measurement of the signing enclave to
	// hard-code into the monitor (§VI-C); zero disables attest-sign.
	SigningMeasurement [32]byte
	// Telemetry injects an existing registry (fleet shards share one);
	// nil creates a fresh registry. DisableTelemetry leaves the system
	// fully uninstrumented — the compile-out mode benchmarks compare
	// against.
	Telemetry        *telemetry.Registry
	DisableTelemetry bool
}

func (o *Options) fill() {
	if o.Cores == 0 {
		o.Cores = 2
	}
	if o.RegionShift == 0 {
		o.RegionShift = 17 // 128 KiB regions: 32 pages each
	}
	if o.RegionCount == 0 {
		o.RegionCount = 64
	}
	if o.MonitorImage == nil {
		o.MonitorImage = []byte("sanctorum reproduction monitor v1")
	}
	if o.Seed == nil {
		o.Seed = []byte("sanctorum-system")
	}
}

// System is a booted machine: hardware, monitor, untrusted OS, and the
// manufacturer PKI a remote verifier pins.
type System struct {
	Machine      *machine.Machine
	Monitor      *sm.Monitor
	OS           *os.OS
	Manufacturer *boot.Manufacturer
	Device       *boot.Device

	// Telemetry is the system's metrics registry (DESIGN.md §13); nil
	// when Options.DisableTelemetry was set.
	Telemetry *telemetry.Registry

	// KernelRegion and MetaRegion record the layout choices NewSystem
	// made: region 0 backs the OS kernel, RegionCount-2 the monitor's
	// metadata, RegionCount-1 the monitor image.
	KernelRegion int
	MetaRegion   int
	SMRegion     int
}

// NewSystem builds and boots a complete system.
func NewSystem(opts Options) (*System, error) {
	opts.fill()
	layout := dram.Layout{RegionShift: opts.RegionShift, RegionCount: opts.RegionCount}
	cfg := machine.DefaultConfig(opts.Kind)
	cfg.Cores = opts.Cores
	cfg.DRAM = layout
	cfg.Seed = opts.Seed
	m, err := machine.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("sanctorum: building machine: %w", err)
	}

	mfr := boot.NewManufacturer("sanctorum-works", append([]byte("mfr:"), opts.Seed...))
	dev := mfr.Provision("sim-device-0", append([]byte("dev:"), opts.Seed...))
	id, err := dev.Boot(opts.MonitorImage)
	if err != nil {
		return nil, fmt.Errorf("sanctorum: secure boot: %w", err)
	}

	smRegion := opts.RegionCount - 1
	metaRegion := opts.RegionCount - 2
	var plat sm.Platform
	switch opts.Kind {
	case Sanctum:
		plat = sanctum.New()
	case Keystone:
		plat = keystone.New(layout)
	default:
		plat = baseline.New()
	}
	mon, err := sm.New(sm.Config{
		Machine:        m,
		Platform:       plat,
		Identity:       id,
		SMRegions:      []int{smRegion},
		SigningEnclave: opts.SigningMeasurement,
	})
	if err != nil {
		return nil, fmt.Errorf("sanctorum: booting monitor: %w", err)
	}
	var reg *telemetry.Registry
	var calls smcall.Dispatcher = mon
	if !opts.DisableTelemetry {
		reg = opts.Telemetry
		if reg == nil {
			reg = telemetry.New()
		}
		// The monitor carries no instruments: a tap at its trap entry
		// and host call ABI observes it from outside the TCB. Off, no
		// tap is installed at all.
		tap := smtap.New(reg, mon, m.CycleNow)
		m.Firmware = tap
		calls = tap
	}
	kernel, err := os.New(m, calls, 0, metaRegion)
	if err != nil {
		return nil, fmt.Errorf("sanctorum: starting OS: %w", err)
	}
	if reg != nil {
		kernel.Telemetry = reg
		// Converge the pre-existing counter surfaces (DESIGN.md §13):
		// the block engine's per-core stats and the smcall client's
		// retry counter stay the source of truth; the registry reads
		// them lazily at Snapshot, so their hot paths gain nothing.
		for _, c := range m.Cores {
			c := c
			reg.RegisterFunc("machine.block.compiled", func() uint64 { return c.BlockStats().Compiled })
			reg.RegisterFunc("machine.block.executions", func() uint64 { return c.BlockStats().Executions })
			reg.RegisterFunc("machine.block.instrs", func() uint64 { return c.BlockStats().Instrs })
			reg.RegisterFunc("machine.block.revalidations", func() uint64 { return c.BlockStats().Revalidations })
			reg.RegisterFunc("machine.block.invalidations", func() uint64 { return c.BlockStats().Invalidations })
			reg.RegisterFunc("machine.block.decodes", func() uint64 { return c.BlockStats().Decodes })
		}
		reg.RegisterFunc("smcall.retries", kernel.SM.Retries)
	}
	return &System{
		Machine:      m,
		Monitor:      mon,
		OS:           kernel,
		Telemetry:    reg,
		Manufacturer: mfr,
		Device:       dev,
		KernelRegion: 0,
		MetaRegion:   metaRegion,
		SMRegion:     smRegion,
	}, nil
}

// TrustedRoot returns the manufacturer public key a remote verifier
// pins.
func (s *System) TrustedRoot() ed25519.PublicKey { return s.Manufacturer.RootKey() }

// BuildEnclave loads and initializes an enclave through the monitor's
// API (Fig 3), returning its eid, thread ids and measurement.
func (s *System) BuildEnclave(spec *os.EnclaveSpec) (*os.BuiltEnclave, error) {
	return s.OS.BuildEnclave(spec)
}

// Enter schedules an enclave thread on a core and runs it until the
// monitor hands control back (exit, AEX, or fault delegation). The
// returned error wraps the api.Error status, so callers can test it
// with errors.Is (e.g. errors.Is(err, api.ErrRetry)).
func (s *System) Enter(coreID int, eid, tid uint64, maxSteps int) (machine.RunResult, error) {
	if st := s.OS.EnterEnclave(coreID, eid, tid); st != 0 {
		return machine.RunResult{}, fmt.Errorf("sanctorum: enter_enclave: %w", st)
	}
	return s.Machine.Run(coreID, maxSteps)
}

// ABIVersion probes the monitor's unified call ABI version
// (api.Version layout: major<<16 | minor).
func (s *System) ABIVersion() (uint64, error) { return s.OS.ABIVersion() }

// GetField reads a public monitor metadata field (§VI-C) through the
// call ABI: the monitor writes the bytes into OS-owned memory and the
// OS model copies them out.
func (s *System) GetField(f api.Field) ([]byte, error) { return s.OS.GetField(f) }

// SendMail delivers an OS message to an enclave's armed mailbox through
// the call ABI, stamped with the reserved OS identity.
func (s *System) SendMail(recipientEID uint64, msg []byte) error {
	return s.OS.SendMail(recipientEID, msg)
}

// Resume re-runs a core that returned to the OS without re-entering
// through the monitor (e.g. to continue an OS user program).
func (s *System) Resume(coreID int, maxSteps int) (machine.RunResult, error) {
	return s.Machine.Run(coreID, maxSteps)
}

// Scheduling re-exports: the OS scheduler timeshares enclave threads
// across cores (internal/os/sched.go) on top of the machine's
// multi-hart scheduler.
type (
	// Task names one enclave thread to run.
	Task = os.Task
	// TaskResult reports one finished task.
	TaskResult = os.TaskResult
	// SchedConfig configures the scheduler (mode, preemption quantum).
	SchedConfig = os.SchedConfig
)

// Scheduler execution modes.
const (
	// Deterministic interleaves cores round-robin on one goroutine;
	// results and all modeled observables are bit-reproducible.
	Deterministic = machine.SchedDeterministic
	// Parallel runs one goroutine per core for genuine multi-hart
	// concurrency; aggregate results are correct, interleaving is not
	// reproducible.
	Parallel = machine.SchedParallel
)

// NewScheduler returns an OS scheduler over this system's cores.
func (s *System) NewScheduler(cfg SchedConfig) *os.Scheduler {
	return s.OS.NewScheduler(cfg)
}

// RunAll timeshares the tasks — N enclave threads — across the
// machine's cores until all have finished, with timer preemption per
// cfg, and returns per-task results in submission order.
func (s *System) RunAll(cfg SchedConfig, tasks []Task) []TaskResult {
	return s.OS.NewScheduler(cfg).RunAll(tasks)
}

// GatewayConfig configures a request-serving gateway (internal/os).
type GatewayConfig = os.GatewayConfig

// NewPool builds a snapshot/clone worker pool over this system's OS
// (see internal/os.NewPool).
func (s *System) NewPool(spec *os.EnclaveSpec, cloneRegions []int, perClone int) (*os.Pool, error) {
	return os.NewPool(s.OS, spec, cloneRegions, perClone)
}

// NewGateway builds a ring-IPC request-serving gateway over pool
// workers (DESIGN.md §9): host requests are batched into mailbox-ring
// sends, parked workers wake through the monitor's IPI-routed wake
// sink, run under the OS scheduler, and stream stamped responses back.
func (s *System) NewGateway(pool *os.Pool, cfg GatewayConfig) (*os.Gateway, error) {
	return os.NewGateway(s.OS, s.Monitor, pool, cfg)
}

// SetupShared allocates an OS page, maps it at va in the OS page
// tables, and returns its physical address. This is the untrusted
// buffer enclaves and the OS exchange data through.
func (s *System) SetupShared(va uint64) (uint64, error) {
	return s.OS.MapUserPage(va)
}

// SharedRead reads from the shared buffer with OS rights.
func (s *System) SharedRead(pa uint64, n int) ([]byte, error) {
	return s.OS.ReadOwned(pa, n)
}

// SharedWrite writes to the shared buffer with OS rights.
func (s *System) SharedWrite(pa uint64, data []byte) error {
	return s.OS.WriteOwned(pa, data)
}

// SharedWriteWord stores one 64-bit word into the shared buffer.
func (s *System) SharedWriteWord(pa uint64, off int, v uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * uint(i)))
	}
	return s.OS.WriteOwned(pa+uint64(off), b[:])
}

// Fleet re-exports: the multi-machine sharding tier (internal/fleet,
// DESIGN.md §12).
type (
	// Fleet is a routing tier over N machine×monitor×pool×gateway
	// shards with cross-machine attested channels.
	Fleet = fleet.Fleet
	// FleetConfig configures the routing tier.
	FleetConfig = fleet.Config
	// FleetRequest is one session-keyed request.
	FleetRequest = fleet.Request
	// FleetHost is one booted machine handed to the fleet.
	FleetHost = fleet.Host
	// FleetChannel is an established cross-machine attested channel.
	FleetChannel = fleet.Channel
	// FleetHello and FleetOffer are the handshake halves — exported so
	// the adversary battery can replay and tamper with them.
	FleetHello = fleet.Hello
	FleetOffer = fleet.Offer
)

// FleetOptions configures NewFleet. Zero fields take defaults.
type FleetOptions struct {
	Kind   Kind
	Shards int // machines in the fleet; default 2
	Cores  int // cores per machine; default NewSystem's default
	Config FleetConfig
	// DisableTelemetry boots every shard uninstrumented and skips the
	// fleet-level registry (the telemetry-off benchmark mode).
	DisableTelemetry bool
}

// NewFleet boots Shards independent machines — each with its own
// secure-booted monitor and manufacturer PKI, seeded distinctly so no
// two machines share device keys — and assembles the routing tier over
// them. Every machine is booted with the fleet's signing-enclave
// measurement hard-coded, so cross-machine channels can attest.
func NewFleet(opts FleetOptions) (*Fleet, error) {
	if opts.Shards <= 0 {
		opts.Shards = 2
	}
	meas, err := fleet.SigningMeasurement()
	if err != nil {
		return nil, fmt.Errorf("sanctorum: fleet signing measurement: %w", err)
	}
	seed := opts.Config.Seed
	if seed == nil {
		seed = []byte("sanctorum-fleet")
	}
	// One registry serves the entire fleet: every shard's monitor and
	// gateway instrument into it, so same-named instruments (per-call
	// counters, ring depths) aggregate fleet-wide, and the routing tier
	// converges its own counters onto the same namespace.
	var reg *telemetry.Registry
	if !opts.DisableTelemetry {
		reg = telemetry.New()
	}
	opts.Config.Telemetry = reg
	hosts := make([]FleetHost, opts.Shards)
	for i := range hosts {
		sys, err := NewSystem(Options{
			Kind:               opts.Kind,
			Cores:              opts.Cores,
			Seed:               append(append([]byte(nil), seed...), byte(i)),
			SigningMeasurement: meas,
			Telemetry:          reg,
			DisableTelemetry:   opts.DisableTelemetry,
		})
		if err != nil {
			return nil, fmt.Errorf("sanctorum: fleet machine %d: %w", i, err)
		}
		hosts[i] = FleetHost{
			Machine:     sys.Machine,
			Monitor:     sys.Monitor,
			OS:          sys.OS,
			TrustedRoot: sys.TrustedRoot(),
		}
	}
	return fleet.New(hosts, opts.Config)
}

// SharedReadWord loads one 64-bit word from the shared buffer.
func (s *System) SharedReadWord(pa uint64, off int) (uint64, error) {
	b, err := s.OS.ReadOwned(pa+uint64(off), 8)
	if err != nil {
		return 0, err
	}
	var v uint64
	for i, x := range b {
		v |= uint64(x) << (8 * uint(i))
	}
	return v, nil
}
