package os

// router picks which worker serves the next chunk of requests. The
// serving call names the policy (DESIGN.md §9): Process rotates with
// the gateway's roundRobin cursor, ProcessKeyed routes by keyAffinity
// so one session's requests serialize through one worker's rings (what
// a fleet shard needs, §12), and ProcessBulk pins the worker whose
// buffer holds the data. Response matching — FIFO per worker under the
// monitor's sender stamp — stays in the gateway core and is shared by
// every policy.
type router interface {
	// Pick returns the index of the worker that should take the next
	// chunk, whose first routing key is key, or -1 when no worker has
	// request-ring space left (the gateway then runs a scheduler wave
	// to drain responses and retries). n is the worker count; space
	// reports a worker's free request-ring slots.
	Pick(key uint64, n int, space func(int) int) int
}

// roundRobin rotates chunks across the workers, skipping full rings —
// the original single-machine gateway policy. The gateway owns one
// cursor for its lifetime, so sustained load keeps rotating instead of
// restarting at worker 0 every call.
type roundRobin struct {
	next int
}

// Pick scans from the cursor for a worker with ring space.
func (r *roundRobin) Pick(_ uint64, n int, space func(int) int) int {
	for scanned := 0; scanned < n; scanned++ {
		i := r.next % n
		r.next++
		if space(i) > 0 {
			return i
		}
	}
	return -1
}

// keyAffinity pins a routing key to its home worker (key mod n), so a
// session's requests stay on one worker's rings — what a fleet shard
// wants for cache locality and per-session ordering. When the home
// ring is full the key spills to the roomiest worker rather than
// stalling the whole batch behind one hot session.
type keyAffinity struct{}

// Pick returns the key's home worker, or the roomiest worker when the
// home ring is full.
func (keyAffinity) Pick(key uint64, n int, space func(int) int) int {
	home := int(key % uint64(n))
	if space(home) > 0 {
		return home
	}
	best, bestSpace := -1, 0
	for i := 0; i < n; i++ {
		if s := space(i); s > bestSpace {
			best, bestSpace = i, s
		}
	}
	return best
}
