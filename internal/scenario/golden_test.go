package scenario

import (
	"testing"

	"danas/internal/sim"
)

// TestGoldenEventCounts pins, for every checked-in scenario at scale
// 0.05, how many events the simulation executed and the simulated time
// it ended at. Both are pure functions of the model, so they are
// asserted exactly: a kernel change must leave them alone, and a model
// change that moves them must say why here.
func TestGoldenEventCounts(t *testing.T) {
	golden := map[string]struct {
		events uint64
		end    sim.Time
	}{
		"commit-loss":        {38046, 430671105},
		"crash-recovery":     {17800, 127976098},
		"degrade-under-skew": {20858, 37257274},
		"replica-failover":   {22691, 106178333},
		"rolling-restart":    {20127, 95432329},
		"spine-outage":       {23491, 65989731},
		"tight-sla":          {13325, 46913821},
	}
	srcs := examples(t)
	if len(srcs) != len(golden) {
		t.Errorf("%d example scenarios, %d golden entries: pin every example", len(srcs), len(golden))
	}
	for name, src := range srcs {
		want, ok := golden[name]
		if !ok {
			t.Errorf("%s: no golden entry", name)
			continue
		}
		spec, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		rep, err := Run(spec, 0.05)
		if err != nil {
			t.Fatalf("%s: run: %v", name, err)
		}
		if rep.Events != want.events || rep.End != want.end {
			t.Errorf("%s: events=%d end=%d, want events=%d end=%d", name, rep.Events, rep.End, want.events, want.end)
		}
	}
}
