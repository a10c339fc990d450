package stripe

import (
	"errors"
	"fmt"

	"danas/internal/obs"
	"danas/internal/sim"
)

// AckPolicy is the durability-versus-latency knob of replicated writes:
// how many copies of a shard must acknowledge a write before the client
// considers it complete. The write always reaches every live copy — the
// policy only decides how long the writer waits.
type AckPolicy int

const (
	// AckSync waits for every copy: a write survives the loss of any
	// copy, at the latency of the slowest one.
	AckSync AckPolicy = iota
	// AckQuorum waits for a majority of the copies (primary included):
	// a write survives any minority loss while stragglers finish in the
	// background.
	AckQuorum
	// AckAsync waits for the serving copy only: replica copies are
	// fire-and-forget, so a primary crash can lose writes no replica has
	// applied yet — the verifier path recovers them at the next commit.
	AckAsync
)

func (a AckPolicy) String() string {
	switch a {
	case AckSync:
		return "sync"
	case AckQuorum:
		return "quorum"
	case AckAsync:
		return "async"
	default:
		return fmt.Sprintf("ack-policy(%d)", int(a))
	}
}

// ErrUnknownAck rejects a policy token outside the three ParseAck
// accepts.
var ErrUnknownAck = errors.New("stripe: unknown ack policy")

// ParseAck resolves a policy token ("sync", "quorum", "async").
func ParseAck(tok string) (AckPolicy, error) {
	switch tok {
	case "sync":
		return AckSync, nil
	case "quorum":
		return AckQuorum, nil
	case "async":
		return AckAsync, nil
	default:
		return 0, fmt.Errorf("%w %q (valid: sync quorum async)", ErrUnknownAck, tok)
	}
}

// Need is the number of acknowledgements (out of width copies) the
// policy requires before a write completes.
func (a AckPolicy) Need(width int) int {
	switch a {
	case AckSync:
		return width
	case AckQuorum:
		return width/2 + 1
	default:
		return 1
	}
}

// ErrNoQuorum reports a replicated write whose serving copy succeeded
// but whose ack requirement could not be met — too many replica copies
// unreachable. The data is applied where it landed; the durability the
// policy promises is not.
var ErrNoQuorum = errors.New("stripe: replica ack quorum unreachable")

// replicate issues one operation to every listed copy of a replica set:
// copies[0] is the serving copy, run in-line on p — its byte count and
// error are the operation's result — while the remaining copies run
// concurrently on their own processes. need is the ack count that
// completes the operation (AckPolicy.Need): 1 returns as soon as the
// serving copy answers (replicas detach fire-and-forget), len(copies)
// waits for everyone, anything between is a quorum — once met,
// stragglers keep running in the background. A replica copy's failure
// never fails the operation directly (onReplicaErr observes it, and the
// caller typically evicts the copy); if the acks cannot reach need after
// every copy answered, the operation fails with ErrNoQuorum.
func replicate(p *sim.Proc, copies []int, need int, name string,
	op func(wp *sim.Proc, copy int) (int64, error),
	onReplicaErr func(copy int, err error)) (int64, error) {
	if len(copies) == 1 {
		return op(p, copies[0])
	}
	s := p.Sched()
	acks, finished := 0, 0
	// One-shot signals: the waiter re-arms a fresh one per wait round,
	// every finishing replica fires whichever round is current.
	var round *sim.Signal
	sp := obs.Active(p)
	for _, cp := range copies[1:] {
		cp := cp
		s.Go(name, func(wp *sim.Proc) {
			obs.Activate(wp, sp)
			_, err := op(wp, cp)
			finished++
			if err == nil {
				acks++
			} else if onReplicaErr != nil {
				onReplicaErr(cp, err)
			}
			if round != nil {
				round.Fire()
			}
		})
	}
	got, err := op(p, copies[0])
	if err == nil {
		acks++
	}
	if err != nil || need <= 1 {
		// The serving copy is authoritative: its failure is the op's
		// failure regardless of policy, and an async writer does not
		// wait past it. Replicas keep running detached either way.
		return got, err
	}
	for acks < need && finished < len(copies)-1 {
		round = sim.NewSignal(s)
		round.Wait(p)
	}
	round = nil
	if acks < need {
		return got, ErrNoQuorum
	}
	return got, nil
}
