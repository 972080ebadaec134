package os

// Router picks which worker serves the next chunk of requests. It is
// the seam the fleet layer drives (DESIGN.md §12): the single-machine
// gateway defaults to RoundRobin, while a fleet shard plugs in
// KeyAffinity so one session's requests serialize through one worker's
// rings. Response matching — FIFO per worker under the monitor's
// sender stamp — stays in the gateway core and is shared by every
// router; only the selection policy varies.
type Router interface {
	// Pick returns the index of the worker that should take the next
	// chunk, whose first routing key is key, or -1 when no worker has
	// request-ring space left (the gateway then runs a scheduler wave
	// to drain responses and retries). n is the worker count; space
	// reports a worker's free request-ring slots.
	Pick(key uint64, n int, space func(int) int) int
}

// RoundRobin rotates chunks across the workers, skipping full rings —
// the original single-machine gateway policy. The cursor persists
// across Process calls, so sustained load keeps rotating instead of
// restarting at worker 0 every batch.
type RoundRobin struct {
	next int
}

// Pick scans from the cursor for a worker with ring space.
func (r *RoundRobin) Pick(_ uint64, n int, space func(int) int) int {
	for scanned := 0; scanned < n; scanned++ {
		i := r.next % n
		r.next++
		if space(i) > 0 {
			return i
		}
	}
	return -1
}

// KeyAffinity pins a routing key to its home worker (key mod n), so a
// session's requests stay on one worker's rings — what a fleet shard
// wants for cache locality and per-session ordering. When the home
// ring is full the key spills to the roomiest worker rather than
// stalling the whole batch behind one hot session.
type KeyAffinity struct{}

// Pick returns the key's home worker, or the roomiest worker when the
// home ring is full.
func (KeyAffinity) Pick(key uint64, n int, space func(int) int) int {
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

// pinned routes every chunk to one worker — ProcessBulk's policy, since
// a descriptor names spans of that worker's buffer and no other.
type pinned int

// Pick returns the pinned worker while its ring has space.
func (w pinned) Pick(_ uint64, _ int, space func(int) int) int {
	if space(int(w)) > 0 {
		return int(w)
	}
	return -1
}
