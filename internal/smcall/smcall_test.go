package smcall

import (
	"errors"
	"slices"
	"testing"

	"sanctorum/internal/sm/api"
)

// fakeMonitor scripts Dispatch results.
type fakeMonitor struct {
	// retriesBeforeOK makes each distinct request key fail with
	// ErrRetry this many times before succeeding.
	retriesBeforeOK map[api.Call]int
	status          map[api.Call]api.Error // terminal status (default OK)
	calls           []api.Call             // executed (uncontended) calls, in order
}

func newFake() *fakeMonitor {
	return &fakeMonitor{
		retriesBeforeOK: map[api.Call]int{},
		status:          map[api.Call]api.Error{},
	}
}

func (f *fakeMonitor) Dispatch(req api.Request) api.Response {
	if n := f.retriesBeforeOK[req.Call]; n > 0 {
		f.retriesBeforeOK[req.Call] = n - 1
		return api.Response{Status: api.ErrRetry}
	}
	f.calls = append(f.calls, req.Call)
	st := f.status[req.Call]
	return api.Response{Status: st, Values: [2]uint64{req.Args[0] + 1}}
}

// DispatchBatch completes the Dispatcher interface; the client never
// batches.
func (f *fakeMonitor) DispatchBatch([]api.Request) []api.Response {
	panic("smcall: the client submitted a batch")
}

func TestDoRetriesUntilSuccess(t *testing.T) {
	f := newFake()
	f.retriesBeforeOK[api.CallCreateThread] = 3
	c := New(f)
	resp, err := c.Do(api.OSRequest(api.CallCreateThread, 41))
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if resp.Values[0] != 42 {
		t.Fatalf("response not threaded through: %+v", resp)
	}
	if got := c.Retries(); got != 3 {
		t.Fatalf("retry counter = %d, want 3", got)
	}
}

func TestDoStopsAtAttemptBound(t *testing.T) {
	f := newFake()
	f.retriesBeforeOK[api.CallCreateThread] = 1 << 30 // effectively forever
	c := New(f)
	c.MaxAttempts = 5
	_, err := c.Do(api.OSRequest(api.CallCreateThread))
	if !errors.Is(err, api.ErrRetry) {
		t.Fatalf("bounded retry returned %v, want ErrRetry", err)
	}
	if got := c.Retries(); got != 5 {
		t.Fatalf("retry counter = %d, want 5", got)
	}
}

func TestDoReturnsTerminalStatusAsError(t *testing.T) {
	f := newFake()
	f.status[api.CallInitEnclave] = api.ErrInvalidState
	c := New(f)
	_, err := c.Do(api.OSRequest(api.CallInitEnclave, 7))
	if !errors.Is(err, api.ErrInvalidState) {
		t.Fatalf("terminal error lost: %v", err)
	}
	if errors.Is(err, api.ErrRetry) {
		t.Fatal("error matches the wrong sentinel")
	}
}

func TestTryHandsBackRetryButCountsIt(t *testing.T) {
	f := newFake()
	f.retriesBeforeOK[api.CallEnterEnclave] = 1
	c := New(f)
	if st := c.TryEnterEnclave(0, 1, 2); st != api.ErrRetry {
		t.Fatalf("first try = %v, want ErrRetry", st)
	}
	if st := c.TryEnterEnclave(0, 1, 2); st != api.OK {
		t.Fatalf("second try = %v, want OK", st)
	}
	if got := c.Retries(); got != 1 {
		t.Fatalf("retry counter = %d, want 1", got)
	}
}

// TestDoSequenceRunsEachCallOnce: a multi-call sequence is lone calls
// issued one after another. A contended call is retried alone: the
// calls before it are not re-run, and the calls after it wait for it.
func TestDoSequenceRunsEachCallOnce(t *testing.T) {
	f := newFake()
	f.retriesBeforeOK[api.CallInitEnclave] = 2
	c := New(f)
	reqs := []api.Request{
		api.OSRequest(api.CallCreateEnclave, 1),
		api.OSRequest(api.CallLoadPage, 2),
		api.OSRequest(api.CallInitEnclave, 3),
		api.OSRequest(api.CallEnclaveStatus, 4),
	}
	for i, req := range reqs {
		resp, err := c.Do(req)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if resp.Values[0] != req.Args[0]+1 {
			t.Fatalf("call %d answered out of order: %+v", i, resp)
		}
	}
	want := []api.Call{api.CallCreateEnclave, api.CallLoadPage,
		api.CallInitEnclave, api.CallEnclaveStatus}
	if !slices.Equal(f.calls, want) {
		t.Fatalf("monitor executed %v, want each call exactly once (%v)", f.calls, want)
	}
	if got := c.Retries(); got != 2 {
		t.Fatalf("retry counter = %d, want 2", got)
	}
}

// TestStarvationErrorTyped pins the bounded-livelock guard's contract:
// an exhausted attempt budget surfaces as a *StarvationError carrying
// the call and attempt count, which still matches api.ErrRetry under
// errors.Is so requeue-style callers are unaffected.
func TestStarvationErrorTyped(t *testing.T) {
	f := newFake()
	f.retriesBeforeOK[api.CallCreateThread] = 1 << 30 // effectively forever
	c := New(f)
	c.MaxAttempts = 7
	_, err := c.Do(api.OSRequest(api.CallCreateThread))
	var se *StarvationError
	if !errors.As(err, &se) {
		t.Fatalf("exhausted Do returned %T (%v), want *StarvationError", err, err)
	}
	if se.Call != api.CallCreateThread || se.Attempts != 7 {
		t.Fatalf("starvation verdict %+v, want call %v after 7 attempts", se, api.CallCreateThread)
	}
	if !errors.Is(err, api.ErrRetry) {
		t.Fatal("starvation must still match api.ErrRetry under errors.Is")
	}
	if errors.Is(err, api.ErrInvalidState) {
		t.Fatal("starvation matches an unrelated sentinel")
	}
}

// TestBackoffEscalationTerminates walks the full yield-escalation
// ladder — past escalateAfter, where every retry donates a starvation
// burst — and requires the loop to still terminate promptly.
func TestBackoffEscalationTerminates(t *testing.T) {
	f := newFake()
	f.retriesBeforeOK[api.CallCreateThread] = 1 << 30
	c := New(f)
	c.MaxAttempts = escalateAfter + 8
	_, err := c.Do(api.OSRequest(api.CallCreateThread))
	var se *StarvationError
	if !errors.As(err, &se) {
		t.Fatalf("escalated Do returned %v, want *StarvationError", err)
	}
	if se.Attempts != escalateAfter+8 {
		t.Fatalf("attempts = %d, want %d", se.Attempts, escalateAfter+8)
	}
}
