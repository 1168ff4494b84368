package sm

import (
	"sanctorum/internal/sm/api"
	"sanctorum/internal/telemetry"
)

// monTelemetry caches the monitor's instrument handles so the dispatch
// and ring hot paths never touch the registry (no map lookups, no
// allocation). Per-call instruments live in a dense array indexed by
// call number, parallel to the call table. The clock is the machine's summed
// per-core modeled cycle counter: telemetry stamps are simulated
// cycles, never wall time, so instrumented runs replay bit-identically.
//
// A nil *monTelemetry (the default — only the facade wires one) is the
// disabled mode: instrumented sites pay a single nil check.
type monTelemetry struct {
	clock func() uint64
	calls []*callInstr

	ringSendBatch *telemetry.Histogram // messages per successful send
	ringRecvBatch *telemetry.Histogram // messages per successful recv
	ringDepth     *telemetry.Gauge     // queued messages across all rings
	ringParks     *telemetry.Counter
	ringWakes     *telemetry.Counter
	ringParkWait  *telemetry.Histogram // cycles between park and wake

	bulkBytes  *telemetry.Counter   // payload bytes granted passage by bulk_send
	bulkGrants *telemetry.Gauge     // live grants
	bulkDescs  *telemetry.Histogram // descriptors per bulk message
}

// callInstr is one monitor call's instrument set.
type callInstr struct {
	count   *telemetry.Counter
	retries *telemetry.Counter
	cycles  *telemetry.Histogram
}

// call returns the instruments for c: nil when telemetry is disabled
// or c is outside the table.
func (tl *monTelemetry) call(c api.Call) *callInstr {
	if tl == nil {
		return nil
	}
	if i := int(c); i >= 0 && i < len(tl.calls) {
		return tl.calls[i]
	}
	return nil
}

// record counts one completed call on shard, and its retry when the
// call was refused for contention, and passes its response through.
// A nil receiver (an uninstrumented call) records nothing.
func (ci *callInstr) record(shard int, resp api.Response) api.Response {
	if ci != nil {
		ci.count.Inc(shard)
		if resp.Status == api.ErrRetry {
			ci.retries.Inc(shard)
		}
	}
	return resp
}

// SetTelemetry instruments the monitor against reg: every dispatch-
// table entry gets count / ErrRetry / latency-cycles instruments, and
// the mailbox rings get depth, park/wake and batch-size instruments.
// Instrument handles are resolved here, once; the hot paths only
// touch cached pointers. Passing a nil registry disables telemetry.
func (mon *Monitor) SetTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		mon.tele = nil
		return
	}
	tl := &monTelemetry{clock: mon.machine.CycleNow, calls: make([]*callInstr, len(callTable))}
	for c, def := range callTable {
		if def.name == "" {
			continue
		}
		tl.calls[c] = &callInstr{
			count:   reg.Counter("sm.call." + def.name + ".count"),
			retries: reg.Counter("sm.call." + def.name + ".retries"),
			cycles:  reg.Histogram("sm.call." + def.name + ".cycles"),
		}
	}
	tl.ringSendBatch = reg.Histogram("sm.ring.send.batch")
	tl.ringRecvBatch = reg.Histogram("sm.ring.recv.batch")
	tl.ringDepth = reg.Gauge("sm.ring.depth")
	tl.ringParks = reg.Counter("sm.ring.parks")
	tl.ringWakes = reg.Counter("sm.ring.wakes")
	tl.ringParkWait = reg.Histogram("sm.ring.parkwait.cycles")
	tl.bulkBytes = reg.Counter("sm.bulk.bytes")
	tl.bulkGrants = reg.Gauge("sm.bulk.grants")
	tl.bulkDescs = reg.Histogram("sm.bulk.descs")
	mon.tele = tl
}
