// Package smcall is the untrusted software's client for the security
// monitor's unified call ABI (internal/sm/api): typed wrappers over
// Monitor.Dispatch plus the one place the §V-A retry discipline lives.
// Monitor transactions fail with api.ErrRetry instead of blocking when
// another hart's transaction holds an object lock; every caller used to
// hand-roll its own retry loop, and this client centralizes them with
// bounded backoff and a shared retry counter (the scheduler's `retries`
// metric reads it).
//
// Every call is a lone transaction, as in the paper's API: the OS
// issues a multi-call sequence (an enclave build, a pool fork) as one
// call after another and stops at the first refusal. No OS path
// batches.
package smcall

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"sanctorum/internal/sm/api"
)

// Dispatcher is the monitor surface the client drives; *sm.Monitor
// implements it. Tests substitute fakes. The client only calls
// Dispatch: DispatchBatch stays in the interface because the serving
// benchmark's ledger tap (servebench/ledger.go) forwards it.
type Dispatcher interface {
	Dispatch(api.Request) api.Response
	DispatchBatch([]api.Request) []api.Response
}

// DefaultMaxAttempts bounds the retry loop: a transaction that stays
// contended this many times is reported to the caller as a
// StarvationError rather than spun on forever. The limit is
// deliberately generous — contention windows in the monitor are a few
// instructions long, and genuine livelock is a bug worth surfacing,
// not masking.
const DefaultMaxAttempts = 1 << 20

// StarvationError is the bounded-livelock guard's verdict: a call
// observed api.ErrRetry on every one of its attempts, through the full
// yield-escalation ladder, and the client refused to spin further. It
// matches api.ErrRetry under errors.Is — starvation is still the §V-A
// contention signal, just one the caller must now handle structurally
// (requeue, shed load, alert) instead of by retrying inline.
type StarvationError struct {
	Call     api.Call
	Attempts int
}

func (e *StarvationError) Error() string {
	return fmt.Sprintf("smcall: %v starved after %d contended attempts", e.Call, e.Attempts)
}

// Is reports api.ErrRetry as a match so errors.Is-based callers keep
// treating starvation as retryable contention.
func (e *StarvationError) Is(target error) bool { return target == api.ErrRetry }

// Client issues monitor calls for one untrusted caller (the OS model).
// The zero value is not usable; construct with New.
type Client struct {
	d Dispatcher

	// MaxAttempts overrides DefaultMaxAttempts when positive.
	MaxAttempts int

	retries atomic.Uint64
}

// New returns a client over the given dispatch surface.
func New(d Dispatcher) *Client { return &Client{d: d} }

// Dispatcher returns the dispatch surface the client drives.
func (c *Client) Dispatcher() Dispatcher { return c.d }

// Retries reports how many times any call through this client observed
// api.ErrRetry — the §V-A contention signal — whether the client
// retried it or handed it back (Try variants). Deterministic-mode runs
// never contend; parallel runs count real cross-hart collisions.
func (c *Client) Retries() uint64 { return c.retries.Load() }

func (c *Client) maxAttempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return DefaultMaxAttempts
}

// Yield-escalation ladder: bursts double up to 2^maxBackoffShift
// yields per retry; a transaction still contended after escalateAfter
// attempts is being actively starved, and from there every retry
// donates a starvedBurst-sized scheduling burst so whichever
// transaction keeps winning the object can drain completely.
const (
	maxBackoffShift = 6
	escalateAfter   = 1 << 12
	starvedBurst    = 1 << 10
)

// backoff yields the host thread progressively longer as a transaction
// stays contended: first a single reschedule, then doubling bursts
// capped well below a host timeslice, then the starvation-escalation
// burst. The monitor's critical sections are a few loads and stores
// long, so yielding — not sleeping — is the right grain; sleeping
// would also perturb the deterministic mode's host-time-free contract.
func backoff(attempt int) {
	spins := 1
	if attempt >= escalateAfter {
		spins = starvedBurst
	} else if attempt > 0 {
		shift := attempt
		if shift > maxBackoffShift {
			shift = maxBackoffShift
		}
		spins = 1 << uint(shift)
	}
	for i := 0; i < spins; i++ {
		runtime.Gosched()
	}
}

// Do dispatches one request, retrying api.ErrRetry with bounded
// backoff. The returned error is the final non-retry status's Err (nil
// for OK), or a *StarvationError if the attempt bound was exhausted.
func (c *Client) Do(req api.Request) (api.Response, error) {
	for attempt := 0; ; attempt++ {
		resp := c.d.Dispatch(req)
		if resp.Status != api.ErrRetry {
			return resp, resp.Status.Err()
		}
		c.retries.Add(1)
		if attempt+1 >= c.maxAttempts() {
			return resp, &StarvationError{Call: req.Call, Attempts: attempt + 1}
		}
		backoff(attempt)
	}
}

// Try dispatches one request exactly once, handing api.ErrRetry back to
// the caller (still counted). Schedulers that would rather run other
// work than spin on a contended object use this.
func (c *Client) Try(req api.Request) api.Response {
	resp := c.d.Dispatch(req)
	if resp.Status == api.ErrRetry {
		c.retries.Add(1)
	}
	return resp
}

// call is the shared typed-wrapper body.
func (c *Client) call(call api.Call, args ...uint64) (api.Response, error) {
	return c.Do(api.OSRequest(call, args...))
}

// ABIVersion probes the monitor's ABI version (api.Version layout).
func (c *Client) ABIVersion() (uint64, error) {
	resp, err := c.call(api.CallGetABIVersion)
	return resp.Values[0], err
}

// CreateEnclave starts the enclave lifecycle (Fig 3).
func (c *Client) CreateEnclave(eid, evBase, evMask uint64) error {
	_, err := c.call(api.CallCreateEnclave, eid, evBase, evMask)
	return err
}

// AllocatePageTable allocates the enclave page-table page covering va
// at the given level, top-down.
func (c *Client) AllocatePageTable(eid, va uint64, level int) error {
	_, err := c.call(api.CallAllocPageTable, eid, va, uint64(level))
	return err
}

// LoadPage loads one measured page from OS memory into the enclave.
func (c *Client) LoadPage(eid, va, srcPA, perms uint64) error {
	_, err := c.call(api.CallLoadPage, eid, va, srcPA, perms)
	return err
}

// MapShared maps an OS-owned page as the enclave's untrusted window.
func (c *Client) MapShared(eid, va, pa uint64) error {
	_, err := c.call(api.CallMapShared, eid, va, pa)
	return err
}

// InitEnclave seals the enclave and finalizes its measurement.
func (c *Client) InitEnclave(eid uint64) error {
	_, err := c.call(api.CallInitEnclave, eid)
	return err
}

// DeleteEnclave tears an enclave down.
func (c *Client) DeleteEnclave(eid uint64) error {
	_, err := c.call(api.CallDeleteEnclave, eid)
	return err
}

// EnclaveStatus reports the enclave's lifecycle state; when measOutPA
// is non-zero the monitor writes the 32-byte measurement there (the
// address must be OS-owned).
func (c *Client) EnclaveStatus(eid, measOutPA uint64) (api.EnclaveState, error) {
	resp, err := c.call(api.CallEnclaveStatus, eid, measOutPA)
	return api.EnclaveState(resp.Values[0]), err
}

// LoadThread creates a measured thread during enclave loading.
func (c *Client) LoadThread(eid, tid, entryPC, entrySP uint64) error {
	_, err := c.call(api.CallLoadThread, eid, tid, entryPC, entrySP)
	return err
}

// CreateThread creates an unbound, unmeasured thread.
func (c *Client) CreateThread(tid uint64) error {
	_, err := c.call(api.CallCreateThread, tid)
	return err
}

// AssignThread offers an available thread to an initialized enclave.
func (c *Client) AssignThread(eid, tid uint64) error {
	_, err := c.call(api.CallAssignThread, eid, tid)
	return err
}

// UnassignThread takes a non-running thread away from its enclave.
func (c *Client) UnassignThread(tid uint64) error {
	_, err := c.call(api.CallUnassignThread, tid)
	return err
}

// DeleteThread destroys an available thread.
func (c *Client) DeleteThread(tid uint64) error {
	_, err := c.call(api.CallDeleteThread, tid)
	return err
}

// TryEnterEnclave schedules a thread onto an idle core, exactly once:
// contention comes back as api.ErrRetry so a scheduler can requeue the
// task instead of spinning on the core slot.
func (c *Client) TryEnterEnclave(coreID int, eid, tid uint64) api.Error {
	return c.Try(api.OSRequest(api.CallEnterEnclave, uint64(coreID), eid, tid)).Status
}

// SnapshotEnclave freezes an initialized, parked enclave read-only and
// registers the snapshot under snapID (a free SM metadata page).
func (c *Client) SnapshotEnclave(eid, snapID uint64) error {
	_, err := c.call(api.CallSnapshotEnclave, eid, snapID)
	return err
}

// CloneEnclave forks a sealed worker from a snapshot into the Loading
// enclave eid (matching evrange, granted regions, nothing loaded).
// Template thread i is recreated under tidBase + i*4096; a non-zero
// sharedPA rebases the template's single shared window onto that
// OS-owned page.
func (c *Client) CloneEnclave(eid, snapID, tidBase, sharedPA uint64) error {
	_, err := c.call(api.CallCloneEnclave, eid, snapID, tidBase, sharedPA)
	return err
}

// ReleaseSnapshot dissolves a snapshot with no outstanding clones,
// thawing the template.
func (c *Client) ReleaseSnapshot(snapID uint64) error {
	_, err := c.call(api.CallReleaseSnapshot, snapID)
	return err
}

// RingCreate registers a mailbox ring (ABI minor 2) between a fixed
// producer and consumer (api.DomainOS or eids) with the given capacity
// in messages. ringID must be a free SM metadata page.
func (c *Client) RingCreate(ringID, producer, consumer uint64, capacity int) error {
	_, err := c.call(api.CallRingCreate, ringID, producer, consumer, uint64(capacity))
	return err
}

// RingSend delivers count messages of api.RingMsgSize bytes each,
// staged contiguously at an OS-owned physical address, and returns how
// many were actually enqueued (a full ring refuses with
// api.ErrInvalidState having sent nothing; a nearly full one sends
// what fits).
func (c *Client) RingSend(ringID, srcPA uint64, count int) (int, error) {
	resp, err := c.call(api.CallRingSend, ringID, srcPA, uint64(count))
	return int(resp.Values[0]), err
}

// RingRecv drains up to max messages into OS-owned memory at outPA —
// one api.RingRecordSize record per message (sender measurement ‖
// sender id ‖ payload) — and returns the record count. An empty ring
// refuses with api.ErrInvalidState.
func (c *Client) RingRecv(ringID, outPA uint64, max int) (int, error) {
	resp, err := c.call(api.CallRingRecv, ringID, outPA, uint64(max))
	return int(resp.Values[0]), err
}

// RingDestroy unregisters a ring, dropping undelivered messages and
// waking any parked consumer (whose re-executed park then fails — the
// shutdown signal).
func (c *Client) RingDestroy(ringID uint64) error {
	_, err := c.call(api.CallRingDestroy, ringID)
	return err
}

// BulkGrant registers a bulk buffer grant (ABI minor 3) over
// [basePA, basePA+pages·4096) in OS-owned memory between a fixed
// producer and consumer (api.DomainOS or eids), pinning every page.
// grantID must be a free SM metadata page; pages is 1..api.BulkMaxPages.
func (c *Client) BulkGrant(grantID, basePA uint64, pages int, producer, consumer uint64) error {
	_, err := c.call(api.CallBulkGrant, grantID, basePA, uint64(pages), producer, consumer)
	return err
}

// BulkRevoke unmaps a grant from every endpoint that bulk_mapped it,
// drops the page pins, and frees the id. Refused with
// api.ErrInvalidState while scatter-gather descriptors into the grant
// are still queued in a ring.
func (c *Client) BulkRevoke(grantID uint64) error {
	_, err := c.call(api.CallBulkRevoke, grantID)
	return err
}

// BulkSend delivers count scatter-gather descriptor messages — each an
// api.RingMsgSize payload parsing as a descriptor list into grantID's
// buffer (see api.EncodeBulkDescs) — staged contiguously at an
// OS-owned physical address, and returns how many were enqueued. The
// caller must be both the ring's producer and a grant endpoint; queued
// descriptors count as in-flight on the grant until bulk-received.
func (c *Client) BulkSend(ringID, srcPA uint64, count int, grantID uint64) (int, error) {
	resp, err := c.call(api.CallBulkSend, ringID, srcPA, uint64(count), grantID)
	return int(resp.Values[0]), err
}

// RegionInfo reports a region's lifecycle state and owner.
func (c *Client) RegionInfo(r int) (api.RegionState, uint64, error) {
	resp, err := c.call(api.CallRegionInfo, uint64(r))
	return api.RegionState(resp.Values[0]), resp.Values[1], err
}

// GrantRegion re-allocates an available or OS-owned region to newOwner.
func (c *Client) GrantRegion(r int, newOwner uint64) error {
	_, err := c.call(api.CallGrantRegion, uint64(r), newOwner)
	return err
}

// BlockRegion relinquishes an OS-owned region.
func (c *Client) BlockRegion(r int) error {
	_, err := c.call(api.CallBlockRegion, uint64(r))
	return err
}

// CleanRegion scrubs a blocked region and makes it available.
func (c *Client) CleanRegion(r int) error {
	_, err := c.call(api.CallCleanRegion, uint64(r))
	return err
}

// SendMail delivers n bytes staged at an OS-owned physical address to
// the recipient enclave's armed mailbox, stamped with the reserved OS
// identity.
func (c *Client) SendMail(recipientEID, srcPA uint64, n int) error {
	_, err := c.call(api.CallSendMail, recipientEID, srcPA, uint64(n))
	return err
}

// GetField copies a public monitor metadata field (§VI-C) into OS-owned
// memory at outPA (at most max bytes) and returns the byte count.
func (c *Client) GetField(f api.Field, outPA, max uint64) (int, error) {
	resp, err := c.call(api.CallGetField, uint64(f), outPA, max)
	return int(resp.Values[0]), err
}
