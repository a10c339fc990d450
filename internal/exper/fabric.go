package exper

import (
	"fmt"
	"strings"

	"danas/internal/metrics"
	"danas/internal/nas"
	"danas/internal/sim"
	"danas/internal/trace"
	"danas/internal/workload"
)

// The fabric sweep is the switch-limited fleet experiment: the same
// storage fleet behind progressively oversubscribed leaf trunks, driven
// by client machines in the hundreds. It answers the question the
// single-switch experiments cannot pose — what binds first when the
// interconnect, not the server, is the scarce resource.
//
// Shape: every shard racks onto leaf 0 (no rack spec, so rack-aware
// placement degenerates to one storage leaf — the classic storage-pod
// layout), clients round-robin the remaining leaves, and all storage
// traffic funnels through leaf 0's trunk bundle. The client axis scales
// offered load linearly; the oversubscription axis shrinks the bundle
// 2 GB/s → 1 GB/s → 0.5 GB/s while per-shard links and CPUs are
// untouched, so any cell whose star twin is healthy but whose trunk
// pegs is switch-limited by construction.
const (
	// 4 leaves over 3 spines: the three client leaves each ECMP-hash
	// onto a distinct spine for their storage-leaf pair, so the trunk
	// bundle loads evenly and a saturated bundle reads as saturated
	// trunks, not one hot spine hiding behind two idle ones.
	fabricLeaves = 4
	fabricSpines = 3
	fabricShards = 8
	// fabricDepth is each client's bounded queue depth: shallow, so a
	// trunk-bound fleet shows up as stalls and tail growth rather than
	// one client's unbounded queue.
	fabricDepth = 8
	// fabricOps/fabricRate are per client; the fleet multiplies them.
	// 900 op/s of 16 KB I/O is ~14.4 MB/s offered per client: 48
	// clients offer ~0.7 GB/s and 192 offer ~2.8 GB/s, against a
	// storage-leaf trunk bundle of 2 GB/s at 1:1 down to 0.5 GB/s at
	// 4:1 per direction — the top cells oversaturate every bundle.
	fabricOps  = 256
	fabricRate = 900
)

// FabricOversubs is the oversubscription axis: 0 is the single-switch
// star baseline (the degenerate topology every other experiment runs
// on), N > 0 is a 4-leaf/2-spine fabric with N:1 leaf trunks.
var FabricOversubs = []int{0, 1, 2, 4}

// FabricClientCounts is the fleet-size axis.
var FabricClientCounts = []int{48, 96, 192}

// FabricSystems is the protocol axis (legend names).
var FabricSystems = []string{"NFS", "DAFS", "ODAFS"}

// FabricGen returns the per-client workload of the fabric sweep at the
// given scale: the standard Zipf read/write mix, resized from one
// trace-pressing client to hundreds of modest ones.
func FabricGen(scale Scale) trace.GenConfig {
	gen := BaseTraceGen()
	gen.Ops = fabricOps
	gen.Rate = fabricRate
	// Uniform, not Zipf: hundreds of independent clients aggregate to
	// an even spread over the fleet, so no single hot shard's 250 MB/s
	// link caps flow into the trunks before the bundle itself can — the
	// regime this sweep exists to measure.
	gen.FileZipf = 0
	gen.OffZipf = 0
	gen.Seed = 271828
	gen = ScaleGen(scale, gen)
	// Saturation needs a steady state: below 64 ops per client the
	// fleet's ramp and drain dominate the measured window and trunk
	// utilization reads low even when the bundle is the bottleneck.
	if gen.Ops < 64 {
		gen.Ops = 64
	}
	return gen
}

// FabricRow is one (oversub, clients, system) cell of the fabric sweep.
type FabricRow struct {
	System string
	// Oversub is the leaf trunk oversubscription ratio (0 = star).
	Oversub int
	Clients int
	// MBps is fleet-aggregate completed-byte throughput from the first
	// client's replay start to the last completion.
	MBps float64
	// P50/P95/P99Micros are fleet-wide response-time percentiles (every
	// client's histogram merged), measured from recorded arrivals.
	P50Micros float64
	P95Micros float64
	P99Micros float64
	// Stalls sums closed-loop submissions across the fleet.
	Stalls int64
	// MaxShardCPUPct is the hottest shard CPU over the replay — the
	// figure that stays below its star twin when the trunk binds.
	MaxShardCPUPct float64
	// TrunkUpPct/TrunkDownPct are the storage leaf's hottest trunk
	// utilization per direction; TrunkQueueMicros is the deepest trunk
	// backlog any frame saw at enqueue. All zero on the star.
	TrunkUpPct       float64
	TrunkDownPct     float64
	TrunkQueueMicros float64
	// Drops counts frames black-holed by down switches (zero here; the
	// sweep is fault-free).
	Drops uint64
}

// OversubLabel names an oversubscription ratio for tables ("star",
// "1:1", "2:1", ...).
func OversubLabel(o int) string {
	if o == 0 {
		return "star"
	}
	return fmt.Sprintf("%d:1", o)
}

// FabricSweep runs the switch-limited fleet sweep: every protocol and
// fleet size against the star and each oversubscribed fabric.
func FabricSweep(scale Scale) []FabricRow {
	return FabricSweepOver(scale, FabricClientCounts)
}

// FabricSweepOver runs the sweep over an explicit client-count axis
// (tests use reduced axes; FabricSweep uses the full one).
func FabricSweepOver(scale Scale, clientCounts []int) []FabricRow {
	gen := FabricGen(scale)
	ns, nc := len(FabricSystems), len(clientCounts)
	n := len(FabricOversubs) * nc * ns
	return RunCells(n,
		func(i int) string {
			o, c, s := FabricOversubs[i/(nc*ns)], clientCounts[i/ns%nc], FabricSystems[i%ns]
			return fmt.Sprintf("fabric/%s/%dc/%s", OversubLabel(o), c, s)
		},
		func(i int) FabricRow {
			o, c, s := FabricOversubs[i/(nc*ns)], clientCounts[i/ns%nc], FabricSystems[i%ns]
			return fabricCell(s, o, c, gen)
		})
}

// fabricCell runs one cell: clients machines replay one shared trace
// (the records are read-only, so the fleet shares a single buffer
// instead of carrying a copy per client) against the sharded fleet.
// Client i's replay clock starts i/clients of one interarrival late, so
// the identical per-client arrival processes interleave instead of
// issuing in lockstep bursts.
func fabricCell(system string, oversub, clients int, gen trace.GenConfig) FabricRow {
	tr := trace.Generate(gen)
	cl, fileBlocks, dataBlocks := replayClusterWith(tr, fabricShards, func(cfg *ClusterConfig, _ int) {
		cfg.Clients = clients
		if oversub > 0 {
			cfg.Fabric = FabricConfig{Leaves: fabricLeaves, Spines: fabricSpines, Oversub: oversub}
		}
	})
	defer cl.Close()
	name := fmt.Sprintf("fabric %s/%s/%dc", system, OversubLabel(oversub), clients)
	acs := make([]nas.AsyncClient, clients)
	for i := range acs {
		// Each client is sized exactly like the single-client replay cells.
		acs[i] = cl.Mount(i, scalingSpec(system, fileBlocks, dataBlocks)).Async(fabricDepth)
	}
	stagger := sim.Duration(float64(sim.Second)/gen.Rate) / sim.Duration(clients)
	results := make([]*workload.ReplayResult, clients)
	// Utilization epochs mark when the last client's replay clock
	// starts: the fleet's mass file-open phase (hundreds of clients x
	// shards of open RPCs) would otherwise sit inside the measured
	// window and dilute every utilization figure. The scheduler runs
	// one process at a time, so the plain counter is race-free.
	started := 0
	onStart := func(sim.Time) {
		started++
		if started == clients {
			cl.MarkServerEpochs()
		}
	}
	for i := range acs {
		i := i
		cl.Go(fmt.Sprintf("fabric-client%d", i), func(p *sim.Proc) {
			if d := stagger * sim.Duration(i); d > 0 {
				p.Sleep(d)
			}
			res, err := workload.ReplayObserved(p, acs[i], tr, onStart, nil)
			if err != nil {
				panic(fmt.Sprintf("%s client %d: %v", name, i, err))
			}
			results[i] = res
		})
	}
	cl.Run()

	row := FabricRow{System: system, Oversub: oversub, Clients: clients}
	var lat metrics.Hist
	var bytes int64
	var first, last sim.Time
	for i, res := range results {
		if res == nil {
			panic(name + ": replay never completed")
		}
		lat.Merge(&res.Lat)
		bytes += res.Bytes
		row.Stalls += res.Stalls
		if i == 0 || res.Start < first {
			first = res.Start
		}
		if end := res.Start.Add(res.Elapsed); end > last {
			last = end
		}
	}
	if el := last.Sub(first); el > 0 {
		row.MBps = float64(bytes) / 1e6 / el.Seconds()
	}
	row.P50Micros = lat.Quantile(0.50).Micros()
	row.P95Micros = lat.Quantile(0.95).Micros()
	row.P99Micros = lat.Quantile(0.99).Micros()
	for _, sh := range cl.Shards {
		if u := sh.Host.CPU.Utilization() * 100; u > row.MaxShardCPUPct {
			row.MaxShardCPUPct = u
		}
	}
	ts := cl.Fab.TrunkStats(0)
	row.TrunkUpPct = ts.UpUtil * 100
	row.TrunkDownPct = ts.DownUtil * 100
	row.TrunkQueueMicros = ts.MaxBacklog.Micros()
	row.Drops = cl.Fab.Dropped()
	return row
}

// FabricTables renders the sweep as one throughput table per protocol
// (x = clients, one column per topology).
func FabricTables(rows []FabricRow) []*metrics.Table {
	labels := make([]string, len(FabricOversubs))
	for i, o := range FabricOversubs {
		labels[i] = OversubLabel(o)
	}
	tables := make([]*metrics.Table, 0, len(FabricSystems))
	bySystem := make(map[string]*metrics.Table)
	for _, s := range FabricSystems {
		t := metrics.NewTable(
			fmt.Sprintf("Fabric sweep: %s aggregate throughput vs clients (%d shards on leaf 0)", s, fabricShards),
			"clients", "MB/s", labels...)
		bySystem[s] = t
		tables = append(tables, t)
	}
	for _, r := range rows {
		if t, ok := bySystem[r.System]; ok {
			t.Set(float64(r.Clients), OversubLabel(r.Oversub), r.MBps)
		}
	}
	return tables
}

// FormatFabric renders the sweep deterministically: the per-protocol
// throughput tables followed by one detail line per cell carrying the
// fleet percentiles, the hottest shard CPU, and the storage leaf's
// trunk accounting.
func FormatFabric(rows []FabricRow) string {
	var b strings.Builder
	for _, t := range FabricTables(rows) {
		b.WriteString(t.String())
		b.WriteString("\n")
	}
	b.WriteString("per-cell detail (trunk = storage leaf, hottest spine trunk per direction; q = max backlog at enqueue):\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "o=%-4s C=%-3d %-6s agg=%7.1f MB/s  p50=%8.1f p95=%8.1f p99=%8.1f  stalls=%-6d cpu<=%5.1f%%  trunk up=%5.1f%% dn=%5.1f%% q=%9.1fus  drops=%d\n",
			OversubLabel(r.Oversub), r.Clients, r.System, r.MBps,
			r.P50Micros, r.P95Micros, r.P99Micros, r.Stalls, r.MaxShardCPUPct,
			r.TrunkUpPct, r.TrunkDownPct, r.TrunkQueueMicros, r.Drops)
	}
	return b.String()
}
