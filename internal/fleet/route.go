package fleet

import (
	"errors"
	"fmt"
	"sort"
)

// Session routing (DESIGN.md §12): a session key consistent-hashes
// onto the shard ring (replicas virtual nodes per shard, so a shard's
// departure only re-homes its own arc). New sessions land on their
// hash home unless the home is overloaded relative to the least-loaded
// shard, in which case they spill there. The session table records
// each session's shard and its worker there, and it is the only
// placement decision: established sessions stay on both until a drain
// re-homes them.

// placement is one session table entry: the shard serving the session
// and the index of its worker in that shard's gateway.
type placement struct {
	shard, worker int
}

// place gives a session arriving on shard s its worker there: the
// session mod the shard's worker count at that moment. An entry never
// changes afterwards, so a worker added later moves no session.
func (f *Fleet) place(session uint64, s int) placement {
	return placement{shard: s, worker: int(session % uint64(f.shards[s].gw.NumWorkers()))}
}

type hashPoint struct {
	hash  uint64
	shard int
}

// mix is splitmix64's finalizer: a fixed, deterministic 64-bit mixer —
// routing must not depend on Go's randomized map iteration or hash
// seeds anywhere.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// addPoints inserts shard s's virtual nodes into the ring.
func (f *Fleet) addPoints(s int) {
	for r := 0; r < replicas; r++ {
		f.points = append(f.points, hashPoint{mix(uint64(s)<<32 | uint64(r)), s})
	}
	sort.Slice(f.points, func(i, j int) bool { return f.points[i].hash < f.points[j].hash })
}

// removePoints deletes shard s's virtual nodes (order is preserved).
func (f *Fleet) removePoints(s int) {
	kept := f.points[:0]
	for _, p := range f.points {
		if p.shard != s {
			kept = append(kept, p)
		}
	}
	f.points = kept
}

// Home reports where a fresh session with this key would consistent-
// hash to, without assigning anything. Errors only when every shard is
// draining.
func (f *Fleet) Home(key uint64) (int, error) {
	if len(f.points) == 0 {
		return 0, fmt.Errorf("fleet: no live shards")
	}
	h := mix(key)
	i := sort.Search(len(f.points), func(i int) bool { return f.points[i].hash >= h })
	if i == len(f.points) {
		i = 0 // wrap: the ring is circular
	}
	return f.points[i].shard, nil
}

// Where reports the shard currently serving a session, if assigned.
func (f *Fleet) Where(session uint64) (int, bool) {
	p, ok := f.sessions[session]
	return p.shard, ok
}

// replicas is the number of virtual nodes per shard on the ring.
const replicas = 16

// A new session spills off its home when the home holds at least
// spillSlack sessions and more than spillFactor times the least-loaded
// shard's. The slack is an absolute floor: tiny fleets shouldn't spill
// on the first handful of sessions.
const (
	spillFactor = 2
	spillSlack  = 8
)

// route returns the session's placement, placing a new session on its
// consistent-hash home or — when the home is overloaded — spilling it
// to the least-loaded live shard.
func (f *Fleet) route(session uint64) (placement, error) {
	if p, ok := f.sessions[session]; ok {
		return p, nil
	}
	home, err := f.Home(session)
	if err != nil {
		return placement{}, err
	}
	least := -1
	for s := range f.shards {
		if f.draining[s] {
			continue
		}
		if least < 0 || f.load[s] < f.load[least] {
			least = s
		}
	}
	target := home
	if f.load[home] >= spillSlack && f.load[home] > spillFactor*f.load[least] {
		target = least
		f.Spills++
	} else if t := f.tel; t != nil {
		t.home.Inc(0)
	}
	p := f.place(session, target)
	f.sessions[session] = p
	f.load[target]++
	return p, nil
}

// Drain rebalances shard away: its virtual nodes leave the ring, every
// target shard that will inherit sessions warms one extra snapshot-
// clone worker (capacity lands before traffic does), and only then do
// the drained shard's sessions cut over to their new consistent-hash
// homes, each placed on a worker there as a new session would be. A
// moved session's state does not move with it: the worker it lands on
// has never served it, so the session starts over empty. The drained
// shard serves nothing afterwards but stays up — its machine, monitor
// and attestation enclaves remain for channels. Returns the number of
// sessions moved.
func (f *Fleet) Drain(shard int) (int, error) {
	if shard < 0 || shard >= len(f.shards) {
		return 0, fmt.Errorf("fleet: no shard %d", shard)
	}
	if f.draining[shard] {
		return 0, fmt.Errorf("fleet: shard %d is already draining", shard)
	}
	live := 0
	for s := range f.shards {
		if !f.draining[s] {
			live++
		}
	}
	if live <= 1 {
		return 0, fmt.Errorf("fleet: cannot drain the last live shard")
	}
	f.removePoints(shard)

	// Sessions re-home deterministically: sorted key order, ring
	// lookup against the remaining shards.
	var keys []uint64
	for k, p := range f.sessions {
		if p.shard == shard {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	targets := map[int]bool{}
	moves := make([]int, len(keys))
	for i, k := range keys {
		t, err := f.Home(k)
		if err != nil {
			f.addPoints(shard)
			return 0, err
		}
		moves[i] = t
		targets[t] = true
	}

	// Warm-up before cutover: each inheriting shard forks one more
	// worker from its snapshot. A failed warm-up aborts the drain with
	// the ring restored and the warm-ups made so far undone, newest
	// first — no session sits on a warm worker before cutover, so no
	// session moved.
	var targetList []int
	for t := range targets {
		targetList = append(targetList, t)
	}
	sort.Ints(targetList)
	for i, t := range targetList {
		if err := f.shards[t].gw.AddWorker(); err != nil {
			err = fmt.Errorf("fleet: warming shard %d: %w", t, err)
			for j := i - 1; j >= 0; j-- {
				if uerr := f.shards[targetList[j]].gw.RemoveWorker(); uerr != nil {
					err = errors.Join(err, fmt.Errorf("fleet: undoing shard %d's warm-up: %w", targetList[j], uerr))
				}
			}
			f.addPoints(shard)
			return 0, err
		}
	}

	// Cutover.
	f.draining[shard] = true
	for i, k := range keys {
		f.sessions[k] = f.place(k, moves[i])
		f.load[moves[i]]++
	}
	f.load[shard] = 0
	f.Rebalanced += len(keys)
	if t := f.tel; t != nil {
		t.drains.Inc(0)
	}
	return len(keys), nil
}
