package stripe

import (
	"errors"
	"slices"
	"testing"

	"danas/internal/nas"
	"danas/internal/obs"
	"danas/internal/sim"
)

// fakeCopy is a copy session's failover contract: pending holds its
// uncommitted ranges, acked the ranges it already acknowledged, and
// failWrites makes every re-issue fail.
type fakeCopy struct {
	pending    []nas.PendingRange
	acked      map[nas.PendingRange]bool
	failWrites bool
	stable     []nas.PendingRange
	requeued   []nas.PendingRange
}

func (f *fakeCopy) TakeUncommitted() []nas.PendingRange {
	out := f.pending
	f.pending = nil
	return out
}

func (f *fakeCopy) HasUncommitted(fh uint64, r nas.WriteRange) bool {
	return f.acked[nas.PendingRange{FH: fh, WriteRange: r}]
}

func (f *fakeCopy) Requeue(fh uint64, r nas.WriteRange) {
	f.requeued = append(f.requeued, nas.PendingRange{FH: fh, WriteRange: r})
}

func (f *fakeCopy) WriteStable(p *sim.Proc, h *nas.Handle, off, n int64, bufID uint64) (int64, error) {
	if f.failWrites {
		return 0, nas.ErrTimeout
	}
	f.stable = append(f.stable, nas.PendingRange{FH: h.FH, WriteRange: nas.WriteRange{Off: off, N: n}})
	return n, nil
}

// newFakeSet builds a width-copy set over fake sessions.
func newFakeSet(policy AckPolicy, width int) (*ReplicaSet, []*fakeCopy) {
	copies := make([]*fakeCopy, width)
	for i := range copies {
		copies[i] = &fakeCopy{acked: map[nas.PendingRange]bool{}}
	}
	return NewReplicaSet(policy, width, func(copy int) nas.FailoverSession { return copies[copy] }), copies
}

// inProc runs fn on a simulated process carrying a fresh span and
// returns the span.
func inProc(t *testing.T, fn func(p *sim.Proc)) *obs.Span {
	t.Helper()
	s := sim.New()
	defer s.Close()
	sp := &obs.Span{}
	s.Go("test", func(p *sim.Proc) {
		obs.Activate(p, sp)
		fn(p)
	})
	s.Run()
	return sp
}

// TestFailoverAdvancesCyclically checks failover skips copies marked
// dead and wraps past the last copy to the first live one.
func TestFailoverAdvancesCyclically(t *testing.T) {
	r, _ := newFakeSet(AckSync, 4)
	sp := inProc(t, func(p *sim.Proc) {
		r.noteReplicaErr(1, nas.ErrTimeout)
		if !r.Failover(p, 0) || r.Serving() != 2 {
			t.Errorf("failover from 0 with 1 dead: serving %d, want 2", r.Serving())
		}
		if !r.Failover(p, 2) || r.Serving() != 3 {
			t.Errorf("failover from 2: serving %d, want 3", r.Serving())
		}
		clear(r.dead)
		if !r.Failover(p, 3) || r.Serving() != 0 {
			t.Errorf("failover from the last copy: serving %d, want 0 (cyclic)", r.Serving())
		}
	})
	if r.Failovers != 3 || sp.Failovers != 3 {
		t.Errorf("Failovers = %d, span counted %d, want 3 and 3", r.Failovers, sp.Failovers)
	}
}

// TestConcurrentFailoverRetriesWithoutMoving checks that a second
// operation failing on a copy the set already left just retries: no
// second switch, no second drain, no second count.
func TestConcurrentFailoverRetriesWithoutMoving(t *testing.T) {
	r, copies := newFakeSet(AckAsync, 3)
	copies[0].pending = []nas.PendingRange{{FH: 1, WriteRange: nas.WriteRange{Off: 0, N: 8}}}
	sp := inProc(t, func(p *sim.Proc) {
		if !r.Failover(p, 0) {
			t.Error("first failover reported no copy left")
		}
		copies[0].pending = []nas.PendingRange{{FH: 1, WriteRange: nas.WriteRange{Off: 8, N: 8}}}
		if !r.Failover(p, 0) {
			t.Error("stale failover did not report retry")
		}
	})
	if r.Serving() != 1 || r.Failovers != 1 || sp.Failovers != 1 {
		t.Errorf("serving %d, Failovers %d, span %d; want 1, 1, 1", r.Serving(), r.Failovers, sp.Failovers)
	}
	if len(copies[1].stable) != 1 || r.Reissued != 1 {
		t.Errorf("re-issued %v (Reissued %d), want only the first drain's range", copies[1].stable, r.Reissued)
	}
	if r.dead[2] {
		t.Error("the stale failover marked an untouched copy dead")
	}
}

// TestFailoverExhaustionAmnesty checks that failing the last live copy
// clears every dead mark, probes the next copy, and reports failure so
// the operation surfaces a typed timeout instead of hanging.
func TestFailoverExhaustionAmnesty(t *testing.T) {
	r, _ := newFakeSet(AckSync, 2)
	var doErr error
	calls := []int{}
	inProc(t, func(p *sim.Proc) {
		doErr = r.Do(p, func(wp *sim.Proc, copy int) error {
			calls = append(calls, copy)
			return nas.ErrTimeout
		})
	})
	if !errors.Is(doErr, nas.ErrTimeout) {
		t.Errorf("Do with every copy timing out: %v, want nas.ErrTimeout", doErr)
	}
	if !slices.Equal(calls, []int{0, 1}) {
		t.Errorf("Do tried copies %v, want [0 1]", calls)
	}
	if r.Serving() != 0 || r.Failovers != 2 {
		t.Errorf("serving %d after amnesty (Failovers %d), want 0 (2)", r.Serving(), r.Failovers)
	}
	if slices.Contains(r.dead, true) {
		t.Errorf("dead marks %v survive amnesty", r.dead)
	}
}

// TestFailoverDrainsUncommitted checks the re-issue drain: ranges the
// survivor already acknowledged are skipped, the rest are written
// stably, and a failed re-issue is re-queued on the survivor.
func TestFailoverDrainsUncommitted(t *testing.T) {
	r, copies := newFakeSet(AckAsync, 2)
	a := nas.PendingRange{FH: 1, WriteRange: nas.WriteRange{Off: 0, N: 8}}
	b := nas.PendingRange{FH: 1, WriteRange: nas.WriteRange{Off: 8, N: 8}}
	copies[0].pending = []nas.PendingRange{a, b}
	copies[1].acked[a] = true
	inProc(t, func(p *sim.Proc) { r.Failover(p, 0) })
	if !slices.Equal(copies[1].stable, []nas.PendingRange{b}) || r.Reissued != 1 {
		t.Errorf("re-issued %v (Reissued %d), want only the unacknowledged range", copies[1].stable, r.Reissued)
	}

	r, copies = newFakeSet(AckAsync, 2)
	copies[0].pending = []nas.PendingRange{a}
	copies[1].failWrites = true
	inProc(t, func(p *sim.Proc) { r.Failover(p, 0) })
	if !slices.Equal(copies[1].requeued, []nas.PendingRange{a}) || r.Reissued != 0 {
		t.Errorf("failed re-issue: requeued %v (Reissued %d), want it re-queued", copies[1].requeued, r.Reissued)
	}
}

// TestNeedClampsToLive checks the ack requirement never exceeds the
// copies still alive, and only timeouts mark a copy dead.
func TestNeedClampsToLive(t *testing.T) {
	for _, tc := range []struct {
		policy      AckPolicy
		width, live int
		want        int
	}{
		{AckSync, 3, 3, 3},
		{AckSync, 3, 2, 2},
		{AckQuorum, 3, 3, 2},
		{AckQuorum, 5, 2, 2},
		{AckQuorum, 3, 1, 1},
		{AckAsync, 3, 3, 1},
	} {
		r, _ := newFakeSet(tc.policy, tc.width)
		if got := r.need(tc.live); got != tc.want {
			t.Errorf("%v width %d: need(%d) = %d, want %d", tc.policy, tc.width, tc.live, got, tc.want)
		}
	}
	r, _ := newFakeSet(AckSync, 3)
	r.noteReplicaErr(1, errors.New("refused"))
	r.noteReplicaErr(2, nas.ErrTimeout)
	if got := r.live(); !slices.Equal(got, []int{0, 1}) || r.ReplicaErrs != 2 {
		t.Errorf("live %v (ReplicaErrs %d), want [0 1] (2): only a timeout marks a copy dead", got, r.ReplicaErrs)
	}
}

// TestReplicateAbsorbsReplicaTimeout checks a replica timing out under
// quorum neither fails the write nor stalls it, and marks the copy dead
// so later writes skip it.
func TestReplicateAbsorbsReplicaTimeout(t *testing.T) {
	r, _ := newFakeSet(AckQuorum, 3)
	var err error
	var later []int
	inProc(t, func(p *sim.Proc) {
		_, err = r.Replicate(p, "w", func(wp *sim.Proc, copy int) (int64, error) {
			if copy == 2 {
				return 0, nas.ErrTimeout
			}
			return 8, nil
		})
		_, _ = r.Replicate(p, "w", func(wp *sim.Proc, copy int) (int64, error) {
			later = append(later, copy)
			return 8, nil
		})
	})
	if err != nil || r.ReplicaErrs != 1 || !r.dead[2] {
		t.Errorf("err %v, ReplicaErrs %d, dead %v; want nil, 1, copy 2 dead", err, r.ReplicaErrs, r.dead)
	}
	slices.Sort(later)
	if !slices.Equal(later, []int{0, 1}) {
		t.Errorf("later write reached %v, want [0 1]", later)
	}
}

// TestWidthOneNeverFailsOver checks the unreplicated shard: every
// operation runs once on copy 0, and a timeout surfaces unchanged.
func TestWidthOneNeverFailsOver(t *testing.T) {
	r, _ := newFakeSet(AckSync, 1)
	var calls int
	inProc(t, func(p *sim.Proc) {
		if r.Failover(p, 0) {
			t.Error("width-1 Failover reported a copy to retry on")
		}
		if err := r.Do(p, func(wp *sim.Proc, copy int) error {
			calls++
			return nas.ErrTimeout
		}); !errors.Is(err, nas.ErrTimeout) {
			t.Errorf("Do: %v, want nas.ErrTimeout", err)
		}
		if _, err := r.Replicate(p, "w", func(wp *sim.Proc, copy int) (int64, error) {
			calls++
			return 0, nas.ErrTimeout
		}); !errors.Is(err, nas.ErrTimeout) {
			t.Errorf("Replicate: %v, want nas.ErrTimeout", err)
		}
		if err := r.FanOut(p, "n", func(wp *sim.Proc, copy int) error {
			calls++
			return nas.ErrTimeout
		}); !errors.Is(err, nas.ErrTimeout) {
			t.Errorf("FanOut: %v, want nas.ErrTimeout (the serving copy's error)", err)
		}
	})
	if calls != 3 || r.Failovers != 0 || r.Serving() != 0 || r.dead[0] {
		t.Errorf("calls %d, Failovers %d, serving %d, dead %v; want 3, 0, 0, none", calls, r.Failovers, r.Serving(), r.dead)
	}
}

// TestWidthOneAllocatesNothing pins the unreplicated path every
// hostbench workload runs: a width-1 Do, Replicate or FanOut allocates
// nothing beyond the caller's op. Width 1 never touches the process, so
// no scheduler is needed.
func TestWidthOneAllocatesNothing(t *testing.T) {
	r, _ := newFakeSet(AckSync, 1)
	do := func(wp *sim.Proc, copy int) error { return nil }
	op := func(wp *sim.Proc, copy int) (int64, error) { return 1, nil }
	for name, fn := range map[string]func(){
		"Do":        func() { _ = r.Do(nil, do) },
		"Replicate": func() { _, _ = r.Replicate(nil, "w", op) },
		"FanOut":    func() { _ = r.FanOut(nil, "n", do) },
	} {
		if n := testing.AllocsPerRun(1000, fn); n != 0 {
			t.Errorf("width-1 %s: %v allocs, want 0", name, n)
		}
	}
}
