package obs

import (
	"fmt"

	"danas/internal/sim"
)

// Gauge classes: the fixed vocabulary telemetry columns and scenario
// max-gauge assertions draw from. A class names a unit and meaning;
// a fleet exposes many instances per class (one per shard, leaf, ...).
const (
	// GaugeCPUUtil is a host CPU's busy fraction over the last sample
	// interval, in [0, 1].
	GaugeCPUUtil = "cpu-util"
	// GaugeTrunkUtil is a leaf trunk bundle's utilization over the
	// replay so far, per direction, in [0, 1].
	GaugeTrunkUtil = "trunk-util"
	// GaugeTrunkBacklogUs is the deepest trunk backlog any frame has
	// queued behind so far, in microseconds.
	GaugeTrunkBacklogUs = "trunk-backlog-us"
	// GaugeDirtyBlocks is a write-behind shard's dirty-block count.
	GaugeDirtyBlocks = "dirty-blocks"
	// GaugeWBThrottle is a write-behind shard's water-mark state: 1
	// while writers are throttled at the high-water mark, else 0.
	GaugeWBThrottle = "wb-throttle"
	// GaugeRetries, GaugeFailovers and GaugeTimeouts are the fleet's
	// cumulative fault-absorption counters.
	GaugeRetries   = "retries"
	GaugeFailovers = "failovers"
	GaugeTimeouts  = "timeouts"
	// GaugeAsyncDepth is the async client's outstanding-op count.
	GaugeAsyncDepth = "async-depth"
)

// gaugeClasses lists every class in declaration order (the telemetry
// column order within one sample).
var gaugeClasses = []string{
	GaugeCPUUtil,
	GaugeTrunkUtil,
	GaugeTrunkBacklogUs,
	GaugeDirtyBlocks,
	GaugeWBThrottle,
	GaugeRetries,
	GaugeFailovers,
	GaugeTimeouts,
	GaugeAsyncDepth,
}

// GaugeClasses returns the accepted class tokens in declaration order.
func GaugeClasses() []string {
	out := make([]string, len(gaugeClasses))
	copy(out, gaugeClasses)
	return out
}

// ValidGaugeClass reports whether tok names a gauge class; the error
// wraps ErrBadConfig.
func ValidGaugeClass(tok string) error {
	for _, c := range gaugeClasses {
		if c == tok {
			return nil
		}
	}
	return fmt.Errorf("%w: unknown gauge class %q (valid: %s)", ErrBadConfig, tok, gaugeList())
}

// gaugeList renders the class vocabulary for error messages.
func gaugeList() string {
	s := ""
	for i, c := range gaugeClasses {
		if i > 0 {
			s += " "
		}
		s += c
	}
	return s
}

// Gauge is one sampled instrument: a class from the fixed vocabulary,
// an instance name ("shard0", "leaf1", ...), and a closure reading the
// current value. Fn receives the sample instant so differential gauges
// (utilization over the last interval) can keep their own epoch state.
type Gauge struct {
	Class string
	Name  string
	Fn    func(now sim.Time) float64
}

// Sampler snapshots a gauge set at a fixed sim-time interval into a
// time series, as a sim.Proc — ticks are simulation events, so an
// armed sampler observes the fleet without perturbing it only in wall
// terms; runs that enable telemetry are still deterministic, merely
// different from untraced runs, which is why the replay layer arms a
// sampler only when telemetry was requested.
type Sampler struct {
	s        *sim.Scheduler
	interval sim.Duration
	gauges   []Gauge
	times    []sim.Time
	values   [][]float64
	started  bool
	stopped  bool
	timer    *sim.Timer
}

// NewSampler builds a sampler over gauges ticking every interval. The
// error wraps ErrBadConfig for a non-positive interval, an empty gauge
// set, or an unknown gauge class.
func NewSampler(s *sim.Scheduler, interval sim.Duration, gauges []Gauge) (*Sampler, error) {
	if interval <= 0 {
		return nil, fmt.Errorf("%w: sampler interval %v (need > 0)", ErrBadConfig, interval)
	}
	if len(gauges) == 0 {
		return nil, fmt.Errorf("%w: sampler needs at least one gauge", ErrBadConfig)
	}
	for _, g := range gauges {
		if err := ValidGaugeClass(g.Class); err != nil {
			return nil, fmt.Errorf("gauge %s: %w", g.Name, err)
		}
	}
	return &Sampler{s: s, interval: interval, gauges: gauges}, nil
}

// Start spawns the sampling proc: one sample now, then one per
// interval until Stop. Starting twice or after Stop wraps ErrClosed.
func (sm *Sampler) Start() error {
	if sm.started || sm.stopped {
		return fmt.Errorf("%w: sampler already started or stopped", ErrClosed)
	}
	sm.started = true
	sm.s.Go("obs-sampler", func(p *sim.Proc) {
		for {
			sm.sample(p.Now())
			sig := sim.NewSignal(sm.s)
			sm.timer = sm.s.AfterCancel(sm.interval, sig.Fire)
			sig.Wait(p)
			// A Stop between the timer firing and this wakeup still
			// ends the loop; a Stop that cancelled the timer leaves the
			// proc parked on the signal for Scheduler.Close to reap.
			if sm.stopped {
				return
			}
		}
	})
	return nil
}

// Stop ends sampling with one final snapshot at the stop instant, so
// the series always covers the full measured range. Idempotent.
func (sm *Sampler) Stop(now sim.Time) {
	if sm == nil || sm.stopped || !sm.started {
		return
	}
	sm.stopped = true
	if sm.timer != nil {
		sm.timer.Cancel()
	}
	sm.sample(now)
}

// sample appends one row of gauge readings at instant now.
func (sm *Sampler) sample(now sim.Time) {
	row := make([]float64, len(sm.gauges))
	for i, g := range sm.gauges {
		row[i] = g.Fn(now)
	}
	sm.times = append(sm.times, now)
	sm.values = append(sm.values, row)
}

// Gauges returns the sampled instruments in column order; Times the
// sample instants; Values the per-instant rows, aligned with Gauges.
func (sm *Sampler) Gauges() []Gauge { return sm.gauges }

func (sm *Sampler) Times() []sim.Time { return sm.times }

func (sm *Sampler) Values() [][]float64 { return sm.values }

// Max returns the largest sampled value among instances of class (the
// scenario max-gauge assertion's read side); zero when the class was
// never sampled.
func (sm *Sampler) Max(class string) float64 {
	if sm == nil {
		return 0
	}
	best := 0.0
	for col, g := range sm.gauges {
		if g.Class != class {
			continue
		}
		for _, row := range sm.values {
			if row[col] > best {
				best = row[col]
			}
		}
	}
	return best
}
