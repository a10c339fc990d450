package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"danas/internal/exper"
	"danas/internal/obs"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report builds the result line: the end-to-end metrics from the
// untraced repetitions, or with traced the per-layer metrics, after the
// conservation audits have run. A failed audit makes the run incorrect.
func (r *result) report(traced bool) report {
	problems := append([]string(nil), r.problems...)
	m := make(map[string]metric)
	put := func(name, unit string, v float64) { m[name] = metric{v, unit} }

	ops := float64(r.out.ops)
	setup := r.medianSetup()
	if !traced {
		put("sim_ops_per_s", "ops/s", r.repMedian(func(h hostRep) float64 { return ops / h.run.Seconds() }))
		put("setup_s", "s", setup.wall.Seconds())
		put("live_mem_mb", "MB", r.repMedian(func(h hostRep) float64 { return h.liveMB }))
	} else {
		runNs := r.repMedian(func(h hostRep) float64 { return float64(h.run.Nanoseconds()) })
		events := float64(r.out.events)
		put("sim.events", "count", events)
		put("sim.events_per_op", "count", events/ops)
		put("sim.ns_per_event", "ns", runNs/events)
		put("go.allocs_per_op", "count", r.repMedian(func(h hostRep) float64 { return float64(h.mallocs) / ops }))
		put("go.alloc_bytes_per_op", "B", r.repMedian(func(h hostRep) float64 { return float64(h.allocBytes) / ops }))
		put("go.gc_cycles", "count", r.repMedian(func(h hostRep) float64 { return float64(h.gcs) }))

		put("setup.trace_gen_s", "s", setup.traceGen.Seconds())
		put("setup.cluster_build_s", "s", setup.build.Seconds())
		put("setup.warm_s", "s", setup.warm.Seconds())
		put("setup.mount_s", "s", setup.mount.Seconds())

		o := r.out
		put("workload.ops", "count", ops)
		put("workload.failed", "count", float64(o.failed))
		put("workload.stalls", "count", float64(o.stalls))
		put("workload.max_outstanding", "count", float64(o.maxOutstanding))
		put("host.server_cpu_max_pct", "%", o.serverCPUPct)
		put("host.client_cpu_max_pct", "%", o.clientCPUPct)
		put("model.mbps", "MB/s", o.mbps)
		put("model.p50_us", "us", o.p50us)
		put("model.p99_us", "us", o.p99us)
		put("model.sim_s", "s", o.simSeconds())
		put("model.table2_err_pct", "%", r.table2)
		put("model.table3_err_pct", "%", r.table3)
		put("core.local_hit_ratio", "ratio", o.localHit)
		put("core.ordma_success_ratio", "ratio", o.ordmaOK)
		put("cache.data_hit_ratio", "ratio", o.cacheHit)
		put("nic.tlb_hit_ratio", "ratio", o.tlbHit)
		put("wb.stall_ms", "ms", o.wbStallMs)
		put("wb.blocks_per_flush", "count", o.wbBlocksFlush)
		put("fsim.disk_busy_max_pct", "%", o.diskBusyPct)
		put("netsim.trunk_up_pct", "%", o.trunkUpPct)
		put("netsim.trunk_down_pct", "%", o.trunkDownPct)
		put("netsim.trunk_backlog_max_us", "us", o.trunkBacklogUs)

		t := r.traced
		var shareSum float64
		for _, b := range cpuBuckets() {
			share := 0.0
			if t.nSamples > 0 {
				share = 100 * float64(t.samples[b]) / float64(t.nSamples)
			}
			shareSum += share
			put("cpu."+b, "%", share)
		}
		put("cpu.samples", "count", float64(t.nSamples))
		if t.nSamples == 0 || math.Abs(shareSum-100) > 1e-6 {
			problems = append(problems, fmt.Sprintf("audit: cpu shares sum to %.9f%% of %d samples", shareSum, t.nSamples))
		}

		var phaseSum float64
		// The unattributed residue is the split's last column.
		for i, ph := range append(obs.PhaseTokens(), "other") {
			put("obs.phase_mean_us."+ph, "us", t.phaseMean[i])
			phaseSum += t.phaseMean[i]
		}
		put("obs.overlap_mean_us", "us", t.overlapMean)
		if want := t.wallMean + t.overlapMean; math.Abs(phaseSum-want) > 1e-6*math.Max(1, want) {
			problems = append(problems, fmt.Sprintf("audit: phase means sum to %.6fus, mean span wall plus overlap is %.6fus", phaseSum, want))
		}
		put("obs.trace_overhead_pct", "%", 100*(float64(t.run.Nanoseconds())-runNs)/runNs)
	}
	if d := setup.spans() - setup.wall; d < -time.Microsecond || d > time.Microsecond {
		problems = append(problems, fmt.Sprintf("audit: setup spans sum to %v, setup_s is %v", setup.spans(), setup.wall))
	}
	for _, p := range problems {
		fmt.Fprintf(os.Stderr, "hostbench: %s: %s\n", r.spec.name, p)
	}
	return report{Correct: len(problems) == 0 && r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// medianSetup is the split of the median set-up by wall time (the mean
// of the two middle ones for an even count), so the reported spans add
// up to the reported setup_s.
func (r *result) medianSetup() setupSplit {
	s := append([]setupSplit(nil), r.setups...)
	sort.Slice(s, func(i, j int) bool { return s[i].wall < s[j].wall })
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	a, b := s[n/2-1], s[n/2]
	return setupSplit{
		traceGen: (a.traceGen + b.traceGen) / 2,
		build:    (a.build + b.build) / 2,
		warm:     (a.warm + b.warm) / 2,
		mount:    (a.mount + b.mount) / 2,
		wall:     (a.wall + b.wall) / 2,
	}
}

// Paper reference values: Table 2 (one-byte RTT in us, bandwidth in
// MB/s) and Table 3 (4 KB read response time in us, in memory and
// through the client cache).
var (
	paperTable2 = map[string][2]float64{
		"GM": {23, 244}, "VI poll": {23, 244}, "VI block": {53, 244}, "UDP/Ethernet": {80, 166},
	}
	paperTable3 = map[string][2]float64{
		"RPC in-line read": {128, 153}, "RPC direct read": {144, 144}, "ORDMA read": {92, 92},
	}
)

// modelErrors runs the paper's Tables 2 and 3 at full scale and returns
// each table's mean absolute relative error against the paper, in
// percent.
func modelErrors() (table2, table3 float64) {
	var errs []float64
	for _, row := range exper.Table2(1) {
		want := paperTable2[row.Protocol]
		errs = append(errs, relErr(row.RTTMicros, want[0]), relErr(row.MBps, want[1]))
	}
	table2 = mean(errs)
	errs = errs[:0]
	for _, row := range exper.Table3(1) {
		want := paperTable3[row.Mechanism]
		errs = append(errs, relErr(row.InMemMicros, want[0]), relErr(row.InCacheMicros, want[1]))
	}
	return table2, mean(errs)
}

func relErr(got, want float64) float64 { return 100 * math.Abs(got-want) / want }

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
