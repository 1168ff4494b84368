// Package os models the untrusted operating system of the paper's
// threat model: the resource manager that owns scheduling and
// allocation decisions but is outside the TCB. Every monitor operation
// it performs travels through the unified call ABI — api.Request values
// submitted via the smcall client, which also centralizes the §V-A
// retry discipline — and its own memory is reached through
// S-mode-checked accesses, so everything it does is subject to the
// monitor's invariants, including when the adversarial tests make it
// misbehave.
package os

import (
	"fmt"

	"sanctorum/internal/hw/machine"
	"sanctorum/internal/hw/mem"
	"sanctorum/internal/hw/pt"
	"sanctorum/internal/isa"
	"sanctorum/internal/sm/api"
	"sanctorum/internal/smcall"
	"sanctorum/internal/telemetry"
)

// OS is a minimal untrusted kernel for the simulated machine.
type OS struct {
	M *machine.Machine
	// SM is the monitor as the OS sees it: the typed client over the
	// unified call ABI. All monitor calls go through it.
	SM *smcall.Client

	// Telemetry is the registry OS-side components (the gateway)
	// instrument against. Set by the facade right after construction;
	// nil leaves them uninstrumented. The monitor has no instruments:
	// the facade observes it through a tap at its call and trap seams
	// (internal/telemetry/smtap), which is also what New's dispatcher
	// is when telemetry is on.
	Telemetry *telemetry.Registry

	// kernelRegion is the OS region used for its own page tables,
	// staging buffers and user program images.
	kernelRegion int
	nextPage     uint64 // bump allocator within kernelRegion (ppn)
	endPage      uint64

	// metaRegion is the region granted to the SM for metadata.
	metaRegion   int
	nextMetaPage uint64
	endMetaPage  uint64
	metaFree     []uint64 // released metadata pages available for reuse

	// stagePA is the kernel page reused for staging load_page sources
	// and ABI calls that return bytes through OS memory.
	stagePA uint64

	// Root of the OS page tables (maps user programs and shared pages).
	root *pt.Builder
}

// New sets up the OS over the monitor's call surface mon (the monitor
// itself, or a tap wrapping it): it claims kernelRegion for its own
// allocations and grants metaRegion to the monitor for enclave/thread
// metadata.
func New(m *machine.Machine, mon smcall.Dispatcher, kernelRegion, metaRegion int) (*OS, error) {
	o := &OS{M: m, SM: smcall.New(mon), kernelRegion: kernelRegion, metaRegion: metaRegion}
	layout := m.DRAM
	if !o.owns(layout.Base(kernelRegion), layout.RegionSize()) {
		return nil, fmt.Errorf("os: kernel region %d not OS-owned", kernelRegion)
	}
	if err := o.SM.GrantRegion(metaRegion, api.DomainSM); err != nil {
		return nil, fmt.Errorf("os: granting metadata region: %w", err)
	}
	o.nextPage = layout.Base(kernelRegion) >> mem.PageBits
	o.endPage = o.nextPage + layout.PagesPerRegion()
	if o.nextPage == 0 {
		// PPN 0 is reserved: a zero page-table root means bare
		// translation to the hardware.
		o.nextPage = 1
	}
	o.nextMetaPage = layout.Base(metaRegion)
	o.endMetaPage = o.nextMetaPage + layout.RegionSize()

	root, err := pt.NewBuilder(m.Mem, o.allocPage)
	if err != nil {
		return nil, err
	}
	o.root = root
	return o, nil
}

// allocPage bump-allocates a kernel page (ppn).
func (o *OS) allocPage() (uint64, error) {
	if o.nextPage >= o.endPage {
		return 0, fmt.Errorf("os: kernel region exhausted")
	}
	p := o.nextPage
	o.nextPage++
	return p, nil
}

// AllocPagePA allocates a kernel page and returns its physical address.
func (o *OS) AllocPagePA() (uint64, error) {
	p, err := o.allocPage()
	if err != nil {
		return 0, err
	}
	return p << mem.PageBits, nil
}

// AllocMetaPage hands out an unused metadata page address for use as an
// eid or tid.
func (o *OS) AllocMetaPage() (uint64, error) {
	if n := len(o.metaFree); n > 0 {
		p := o.metaFree[n-1]
		o.metaFree = o.metaFree[:n-1]
		return p, nil
	}
	if o.nextMetaPage >= o.endMetaPage {
		return 0, fmt.Errorf("os: metadata region exhausted")
	}
	p := o.nextMetaPage
	o.nextMetaPage += mem.PageSize
	return p, nil
}

// ReleaseMetaPage returns a metadata page to the allocator after the
// monitor has freed the corresponding object (delete_enclave or
// delete_thread).
func (o *OS) ReleaseMetaPage(pa uint64) { o.metaFree = append(o.metaFree, pa) }

// AllocMetaPages hands out n contiguous unused metadata pages and
// returns the first one's address — the tid base a clone_enclave call
// needs, one page per template thread. Contiguity requires the bump
// region; freed single pages are not coalesced.
func (o *OS) AllocMetaPages(n int) (uint64, error) {
	if n <= 0 {
		return 0, fmt.Errorf("os: AllocMetaPages(%d)", n)
	}
	if n == 1 {
		return o.AllocMetaPage()
	}
	need := uint64(n) * mem.PageSize
	if o.nextMetaPage+need > o.endMetaPage {
		return 0, fmt.Errorf("os: metadata region exhausted")
	}
	p := o.nextMetaPage
	o.nextMetaPage += need
	return p, nil
}

// StagePage returns the kernel page used for staging enclave page
// contents, allocating it on first use.
func (o *OS) StagePage() (uint64, error) {
	if o.stagePA == 0 {
		pa, err := o.AllocPagePA()
		if err != nil {
			return 0, err
		}
		o.stagePA = pa
	}
	return o.stagePA, nil
}

// owns reports whether [pa, pa+n) lies wholly in memory the OS owns,
// as the hardware sees it: the live OS-owned set the monitor installs
// as the machine's DMA filter (Machine.DMAAllowed), which refuses a
// range whose end wraps. An S-mode kernel just stores; the hardware
// refuses a region that is not the OS's, so no monitor call is needed.
func (o *OS) owns(pa, n uint64) bool {
	return o.M.DMAAllowed != nil && o.M.DMAAllowed(pa, n)
}

// checkOwned is owns as the error behind WriteOwned and readOwnedInto;
// op names the access in the error.
func (o *OS) checkOwned(pa uint64, n int, op string) error {
	if !o.owns(pa, uint64(n)) {
		return fmt.Errorf("os: %s of %d bytes at %#x outside OS-owned memory", op, n, pa)
	}
	return nil
}

// WriteOwned writes bytes into OS-owned physical memory after the
// hardware's ownership check — the simulation stand-in for an S-mode
// kernel store into its own memory.
func (o *OS) WriteOwned(pa uint64, data []byte) error {
	if len(data) == 0 {
		return nil
	}
	if err := o.checkOwned(pa, len(data), "write"); err != nil {
		return err
	}
	return o.M.Mem.WriteBytes(pa, data)
}

// readOwnedInto fills dst from OS-owned physical memory at pa, with
// WriteOwned's ownership check: the read counterpart of WriteOwned,
// into a buffer the caller owns and may reuse (the gateway's record
// buffer).
func (o *OS) readOwnedInto(pa uint64, dst []byte) error {
	if len(dst) == 0 {
		return nil
	}
	if err := o.checkOwned(pa, len(dst), "read"); err != nil {
		return err
	}
	return o.M.Mem.ReadBytes(pa, dst)
}

// ReadOwned is readOwnedInto into a fresh n-byte buffer.
func (o *OS) ReadOwned(pa uint64, n int) ([]byte, error) {
	if n <= 0 {
		if n < 0 {
			return nil, fmt.Errorf("os: negative read length")
		}
		return nil, nil
	}
	buf := make([]byte, n)
	if err := o.readOwnedInto(pa, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// MapUser maps va→pa into the OS page tables with the given PTE flags.
func (o *OS) MapUser(va, pa uint64, flags uint64) error {
	return o.root.Map(va, pa, flags)
}

// Root returns the OS page-table root PPN, to be installed as a core's
// Satp when running OS-scheduled user code.
func (o *OS) Root() uint64 { return o.root.Root }

// MapUserPage allocates a fresh kernel page and maps it rw at va,
// returning its physical address (shared buffers, stacks).
func (o *OS) MapUserPage(va uint64) (uint64, error) {
	pa, err := o.AllocPagePA()
	if err != nil {
		return 0, err
	}
	return pa, o.MapUser(va, pa, pt.R|pt.W|pt.U)
}

// RunUser points a core at the OS address space and runs user code at
// pc until the monitor returns control.
func (o *OS) RunUser(coreID int, pc, sp uint64, maxSteps int) (machine.RunResult, error) {
	c := o.M.Cores[coreID]
	c.Satp = o.Root()
	c.CPU.Mode = isa.PrivU
	c.CPU.PC = pc
	c.CPU.Halted = false
	c.CPU.SetReg(isa.RegSP, sp)
	return o.M.Run(coreID, maxSteps)
}

// EnterEnclave schedules an enclave thread via the monitor with the
// OS's address-space root live on the core — under Sanctum, enclave
// accesses outside evrange translate through the OS page tables, which
// on real hardware are simply whatever satp the OS had installed. The
// call is submitted exactly once: contention comes back as
// api.ErrRetry, so the scheduler can requeue the task rather than spin
// on the core slot.
func (o *OS) EnterEnclave(coreID int, eid, tid uint64) api.Error {
	o.M.Cores[coreID].Satp = o.Root()
	return o.SM.TryEnterEnclave(coreID, eid, tid)
}

// SendMail stages a message in kernel memory and delivers it to the
// recipient enclave's armed mailbox through the ABI, carrying the
// reserved OS identity.
func (o *OS) SendMail(recipientEID uint64, msg []byte) error {
	if len(msg) > api.MailboxSize {
		return fmt.Errorf("os: message larger than a mailbox: %w", api.ErrInvalidValue)
	}
	stagePA, err := o.StagePage()
	if err != nil {
		return err
	}
	if err := o.WriteOwned(stagePA, msg); err != nil {
		return err
	}
	if err := o.SM.SendMail(recipientEID, stagePA, len(msg)); err != nil {
		return fmt.Errorf("os: send_mail: %w", err)
	}
	return nil
}

// GetField reads a public monitor metadata field (§VI-C) through the
// ABI: the monitor writes the bytes into the OS staging page and the
// kernel copies them out.
func (o *OS) GetField(f api.Field) ([]byte, error) {
	stagePA, err := o.StagePage()
	if err != nil {
		return nil, err
	}
	n, err := o.SM.GetField(f, stagePA, mem.PageSize)
	if err != nil {
		return nil, fmt.Errorf("os: get_field(%d): %w", uint64(f), err)
	}
	return o.ReadOwned(stagePA, n)
}

// ABIVersion probes the monitor's call ABI version.
func (o *OS) ABIVersion() (uint64, error) { return o.SM.ABIVersion() }

// FreeRegions returns the OS-owned regions other than the kernel
// region, ascending — candidates for granting to enclaves.
func (o *OS) FreeRegions() []int {
	var out []int
	layout := o.M.DRAM
	for r := 0; r < layout.RegionCount; r++ {
		if r != o.kernelRegion && o.owns(layout.Base(r), layout.RegionSize()) {
			out = append(out, r)
		}
	}
	return out
}
