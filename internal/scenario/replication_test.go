package scenario

import (
	"strings"
	"testing"

	"danas/internal/exper"
	"danas/internal/trace"
)

// replicationTestCounts keeps the sweep tests fast: the full replica
// axis is exercised by danas-bench and the CI smoke job.
var replicationTestCounts = []int{1}

// TestReplicationRowsComplete checks the sweep's shape — the
// unreplicated baseline plus every ack policy, for every protocol —
// and its headline result: a replicated fleet under the shard-0
// primary crash fails no operations, while the baseline rows pay for
// the same outage in failed ops or a visible recovery window.
func TestReplicationRowsComplete(t *testing.T) {
	rows := ReplicationOver(tiny, replicationTestCounts)
	cells := 1 + len(replicationTestCounts)*len(exper.ReplicationAcks)
	if want := cells * len(exper.ScalingSystems); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
	for _, r := range rows {
		if r.BaseMBps <= 0 {
			t.Errorf("R=%d ack=%s %s: no baseline throughput", r.Replicas, r.Ack, r.System)
		}
		if r.Replicas == 0 {
			if r.Ack != "-" {
				t.Errorf("baseline row carries ack=%q, want -", r.Ack)
			}
			if r.Failovers != 0 || r.Reissued != 0 {
				t.Errorf("%s baseline: failovers=%d reissued=%d on an unreplicated fleet",
					r.System, r.Failovers, r.Reissued)
			}
			continue
		}
		if r.OpsFailed != 0 {
			t.Errorf("R=%d ack=%s %s: %d ops failed — replication must absorb the primary crash",
				r.Replicas, r.Ack, r.System, r.OpsFailed)
		}
		if r.Failovers == 0 {
			t.Errorf("R=%d ack=%s %s: the primary crash triggered no failover",
				r.Replicas, r.Ack, r.System)
		}
	}
}

// TestReplicationFormat pins the artifact's surface: the recovery and
// failed-op tables plus one detail line per cell.
func TestReplicationFormat(t *testing.T) {
	rows := ReplicationOver(tiny, replicationTestCounts)
	out := exper.FormatReplication(rows)
	for _, want := range []string{"recovery time", "failed operations", "ack=sync", "ack=async", "ack=-"} {
		if !strings.Contains(out, want) {
			t.Errorf("formatted replication artifact missing %q:\n%s", want, out)
		}
	}
}

// TestReplicaFailoverBeatsCrashRecovery is the acceptance bound behind
// the replica-failover scenario: the same fleet, trace, and shard-0
// crash, replayed once unreplicated (crash-recovery rides the outage
// out on retries) and once with a replica (clients fail over). The
// replicated run must fail nothing and recover strictly faster. Run at
// a scale where the separation is categorical — the replicated fleet
// never dips at all — rather than a marginal-ms comparison.
func TestReplicaFailoverBeatsCrashRecovery(t *testing.T) {
	const scale = exper.Scale(0.2)
	crash, _ := Lookup("crash-recovery")
	repl, _ := Lookup("replica-failover")
	reps, err := RunAll([]*Spec{crash, repl}, scale)
	if err != nil {
		t.Fatal(err)
	}
	cm, rm := reps[0].M, reps[1].M
	if !reps[1].Pass {
		t.Errorf("replica-failover failed its own assertions:\n%s", reps[1].Format())
	}
	if rm.OpsFailed != 0 {
		t.Errorf("replica-failover failed %d ops, want 0", rm.OpsFailed)
	}
	if rm.Failovers == 0 {
		t.Error("replica-failover recorded no failovers — the crash never exercised the replica")
	}
	// -1 means the unreplicated run never recovered inside the trace;
	// treat it as worse than any finite window.
	cw, rw := cm.Fault.RecoveryMillis, rm.Fault.RecoveryMillis
	if cw >= 0 && rw >= cw {
		t.Errorf("recovery window with a replica (%.1fms) not strictly smaller than without (%.1fms)", rw, cw)
	}
	if rw < 0 {
		t.Errorf("replica-failover never recovered (window %.1fms)", rw)
	}
}

// TestSpanFailoversMatchMount runs replica-failover traced, once over
// raw NFS sessions (stripe.Group) and once over the cached ODAFS client,
// and checks the spans account for every failover the mount counted:
// both clients fail over through the same replica-set state machine,
// which charges each switch to the operation that triggered it.
func TestSpanFailoversMatchMount(t *testing.T) {
	for _, sys := range []string{"nfs", "odafs"} {
		t.Run(sys, func(t *testing.T) {
			spec := ReplicaFailover()
			spec.Fleet.System = sys
			if err := spec.Validate(); err != nil {
				t.Fatal(err)
			}
			tr := trace.Generate(exper.ScaleGen(probe, spec.Workload))
			sess := exper.NewReplaySession(tr, spec.replayConfig())
			defer sess.Close()
			ob, err := sess.Observe(0)
			if err != nil {
				t.Fatal(err)
			}
			sess.Replay("span-failovers", spec.schedule(tr.Duration(), sess.Cluster.P.LinkBandwidth, sess.Cluster.Fab.TrunkRate))
			var spans uint64
			for _, sp := range ob.Rec.Spans() {
				spans += uint64(sp.Failovers)
			}
			if got := sess.Mount.Failovers(); got == 0 || spans != got {
				t.Errorf("spans counted %d failovers, mount %d; want equal and > 0", spans, got)
			}
		})
	}
}
