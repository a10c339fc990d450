package stripe

import (
	"errors"

	"danas/internal/nas"
	"danas/internal/obs"
	"danas/internal/sim"
)

// ReplicaSet is one shard's replica-set state machine: which copy
// serves, which copies are marked dead, how many acknowledgements a
// write needs, and how the set fails over. Both replicated clients
// drive it — Group for raw protocol sessions, and the cached (O)DAFS
// client (internal/core), which keeps one set per shard.
//
// It works on copy indices (0 = the primary). The owner supplies each
// copy's session through an accessor, which may mount the session
// lazily; the set asks for sessions only when failover re-issues a dead
// copy's uncommitted ranges. The operations themselves are closures
// over a copy index, so the owner resolves its own per-copy handles and
// sessions.
//
// A width-1 set is an unreplicated shard: Do, Replicate and FanOut run
// the operation once, in-line on copy 0, and the set never fails over.
type ReplicaSet struct {
	policy  AckPolicy
	session func(copy int) nas.FailoverSession
	serving int
	dead    []bool

	// Failovers counts serving-copy switches; Reissued counts the
	// uncommitted ranges re-written onto the new serving copy during
	// them; ReplicaErrs counts replica-copy failures absorbed by the ack
	// policy.
	Failovers   uint64
	Reissued    uint64
	ReplicaErrs uint64
}

// NewReplicaSet builds the state machine of a width-copy set. session
// returns a copy's failover contract, or nil when the copy's protocol
// has none (failover then switches copies without re-issuing). Sessions
// must be retry-armed: a session that cannot time out can never
// trigger failover.
func NewReplicaSet(policy AckPolicy, width int, session func(copy int) nas.FailoverSession) *ReplicaSet {
	if width < 1 {
		panic("stripe: replica set needs at least one copy")
	}
	return &ReplicaSet{policy: policy, session: session, dead: make([]bool, width)}
}

// Width returns the number of copies (live or dead).
func (r *ReplicaSet) Width() int { return len(r.dead) }

// Serving returns the index of the copy currently serving reads.
func (r *ReplicaSet) Serving() int { return r.serving }

// live returns the copies a write must reach, serving copy first.
func (r *ReplicaSet) live() []int {
	out := []int{r.serving}
	for i, dead := range r.dead {
		if i != r.serving && !dead {
			out = append(out, i)
		}
	}
	return out
}

// need clamps the policy's ack requirement to the copies still alive:
// sync means "every copy that can still answer", not a wait for the
// dead.
func (r *ReplicaSet) need(liveCopies int) int {
	return min(r.policy.Need(len(r.dead)), liveCopies)
}

// noteReplicaErr absorbs a replica-copy failure: the ack policy decides
// whether the write still completes, and a copy that timed out is
// marked dead so later writes stop waiting on it.
func (r *ReplicaSet) noteReplicaErr(copy int, err error) {
	r.ReplicaErrs++
	if errors.Is(err, nas.ErrTimeout) {
		r.dead[copy] = true
	}
}

// Failover reacts to copy failed timing out while serving. If another
// operation already moved on it just reports "retry there". Otherwise it
// marks the copy dead, advances to the next live copy cyclically, counts
// the switch (on the set and on p's span), and re-issues the dead
// session's uncommitted ranges on the new serving copy — cold: the new
// session holds no state from the old one. Ranges the new copy already
// acknowledged are skipped, which is why a sync-policy failover
// re-issues nothing. A re-issue that itself fails is re-queued on the
// new session so the obligation surfaces again at its next commit.
//
// When every copy has been marked dead the marks are cleared and the
// next copy probed anyway: dead marks are routing hints, not tombstones
// — a crashed machine restarts, and the unreplicated client recovers
// exactly by retrying the only machine it has. The current operation
// still fails (typed timeout, never a hang, reported by returning
// false); later operations probe the refreshed view and find the
// restarted copy. A width-1 set has nowhere to go and returns false.
func (r *ReplicaSet) Failover(p *sim.Proc, failed int) bool {
	width := len(r.dead)
	if width == 1 {
		return false
	}
	if r.serving != failed {
		return true // a concurrent op already failed over
	}
	r.dead[failed] = true
	next, exhausted := -1, false
	for i := 1; i < width; i++ {
		if c := (failed + i) % width; !r.dead[c] {
			next = c
			break
		}
	}
	if next < 0 {
		clear(r.dead)
		next = (failed + 1) % width
		exhausted = true
	}
	old, nw := r.session(failed), r.session(next)
	r.serving = next
	r.Failovers++
	obs.Active(p).CountFailover()
	if old == nil || nw == nil {
		return !exhausted
	}
	for _, pr := range old.TakeUncommitted() {
		if nw.HasUncommitted(pr.FH, pr.WriteRange) {
			continue
		}
		if _, err := nw.WriteStable(p, &nas.Handle{FH: pr.FH}, pr.Off, pr.N, nas.CommitBufID); err != nil {
			nw.Requeue(pr.FH, pr.WriteRange)
			continue
		}
		r.Reissued++
	}
	return !exhausted
}

// Do runs a serving-copy operation with failover: a timeout (retry
// against the copy exhausted) advances to the next live copy and
// retries there; any other error — or no copy left — surfaces.
func (r *ReplicaSet) Do(p *sim.Proc, fn func(wp *sim.Proc, copy int) error) error {
	for {
		copy := r.serving
		err := fn(p, copy)
		if err == nil || !errors.Is(err, nas.ErrTimeout) {
			return err
		}
		if !r.Failover(p, copy) {
			return err
		}
	}
}

// Replicate fans a write-class operation to every live copy through the
// ack policy, retrying after a failover (the write is idempotent: a
// copy that already applied it re-applies the same bytes) or after the
// live set shrank under it (the clamped ack requirement is then
// reachable again).
func (r *ReplicaSet) Replicate(p *sim.Proc, name string,
	op func(wp *sim.Proc, copy int) (int64, error)) (int64, error) {
	if len(r.dead) == 1 {
		return op(p, 0)
	}
	for {
		copies := r.live()
		got, err := replicate(p, copies, r.need(len(copies)), name, op, r.noteReplicaErr)
		switch {
		case err == nil:
			return got, nil
		case errors.Is(err, nas.ErrTimeout):
			if r.Failover(p, copies[0]) {
				continue
			}
			return got, err
		case errors.Is(err, ErrNoQuorum) && len(r.live()) < len(copies):
			continue // a copy died mid-write; the smaller set can ack
		default:
			return got, err
		}
	}
}

// FanOut runs a namespace operation on every live copy concurrently and
// waits for all of them. The serving copy's error is the result; a
// replica copy's failure is absorbed like a replica write failure. It
// does not fail over: owners that want failover retry on
// Failover(p, copy-serving-at-call).
func (r *ReplicaSet) FanOut(p *sim.Proc, name string, fn func(wp *sim.Proc, copy int) error) error {
	if len(r.dead) == 1 {
		return fn(p, 0)
	}
	copies := r.live()
	return FanOut(p, len(copies), name, func(wp *sim.Proc, i int) error {
		err := fn(wp, copies[i])
		if err != nil && i > 0 {
			r.noteReplicaErr(copies[i], err)
			return nil // replica failure is absorbed, not surfaced
		}
		return err
	})
}
