package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"danas/internal/core"
	"danas/internal/exper"
	"danas/internal/metrics"
	"danas/internal/nas"
	"danas/internal/nfs"
	"danas/internal/obs"
	"danas/internal/sim"
	"danas/internal/trace"
	"danas/internal/workload"
)

// block is the replay experiments' I/O size, server cache block and
// stripe unit (exper.BaseTraceGen().IOSize).
const block = 16 << 10

// nfsWorkers is the nfsd pool per shard: one worker per queue slot of the
// deepest client, as the trace experiment sizes it.
const nfsWorkers = 64

// spec is one benchmark workload: a fleet shape and the trace every
// client of it replays open-loop.
type spec struct {
	name string
	// system is "DAFS" (cached, no ORDMA), "ODAFS" (cached, ORDMA) or
	// "NFS" (standard kernel NFS over UDP).
	system      string
	clients     int
	depth       int
	shards      int
	fabric      exper.FabricConfig
	writeBehind bool
	gen         trace.GenConfig
}

// specs returns the workloads at the given size: 1 is the benchmark,
// smaller sizes shrink operation counts, file sizes and the fleet for
// self-tests. The seed selects every trace's pseudorandom stream.
func specs(size float64, seed uint64) []spec {
	fabric := exper.FabricGen(1)
	fabric.Ops = scaled(fabric.Ops, size, 16)
	fabric.FileSize = scaledBytes(fabric.FileSize, size)
	fabric.Seed = seed

	zipf := exper.BaseTraceGen()
	zipf.Ops = scaled(80000, size, 64)
	zipf.FileSize = scaledBytes(80<<20, size)
	zipf.ReadFrac = 0.9
	zipf.Seed = seed

	wback := exper.BaseTraceGen()
	wback.Ops = scaled(12000, size, 64)
	wback.FileSize = scaledBytes(wback.FileSize, size)
	wback.ReadFrac = 0.3
	wback.CommitEvery = exper.WriteMixCommitEvery
	wback.Seed = seed

	return []spec{
		{
			name:    "fleet-fabric",
			system:  "DAFS",
			clients: scaled(192, size, 4),
			depth:   8,
			shards:  8,
			fabric:  exper.FabricConfig{Leaves: 4, Spines: 3, Oversub: 2},
			gen:     fabric,
		},
		{
			name:    "odafs-zipf-read",
			system:  "ODAFS",
			clients: 1,
			depth:   64,
			shards:  8,
			gen:     zipf,
		},
		{
			name:        "nfs-writeback",
			system:      "NFS",
			clients:     1,
			depth:       64,
			shards:      4,
			writeBehind: true,
			gen:         wback,
		},
	}
}

func scaled(n int, size float64, floor int) int {
	return max(int(math.Round(float64(n)*size)), floor)
}

func scaledBytes(n int64, size float64) int64 {
	return max(int64(float64(n)*size)/block*block, 64*block)
}

// setupSplit is the host time of each set-up step, in the order they
// run, and of the whole set-up.
type setupSplit struct {
	traceGen, build, warm, mount time.Duration
	wall                         time.Duration
}

// spans sums the steps; it equals wall when they tile the set-up.
func (s setupSplit) spans() time.Duration { return s.traceGen + s.build + s.warm + s.mount }

// cell is one assembled repetition of a workload: a fresh simulation with
// its clients mounted and their replay processes spawned, ready to run.
type cell struct {
	tr      trace.Trace
	cl      *exper.Cluster
	cached  []*core.Client
	results []*workload.ReplayResult
	errs    []error
	recs    []*obs.Recorder
	setup   setupSplit
}

// assemble builds one repetition, timing each call into a layer. With
// traced set, every client replays through its own span recorder.
func (w spec) assemble(traced bool) (*cell, error) {
	c := &cell{}
	t0 := time.Now()
	c.tr = trace.Generate(w.gen)
	t1 := time.Now()

	extents := c.tr.Extents()
	var footprint int64
	for _, ext := range extents {
		footprint += ext.Size
	}
	fileBlocks := int(footprint / block)
	cfg := exper.DefaultClusterConfig()
	cfg.Clients = w.clients
	cfg.Shards = w.shards
	cfg.ServerCacheBlockSize = block
	cfg.StripeUnit = block
	cfg.ServerCacheBlocks = fileBlocks + 64
	cfg.Params.NICTLBSize = int(footprint/4096) + 1024
	cfg.NFSWorkers = nfsWorkers
	cfg.Fabric = w.fabric
	if w.writeBehind {
		cfg.WriteBehind = true
		cfg.WBConfig = exper.AutoWBConfig(fileBlocks, w.shards)
	}
	c.cl = exper.NewCluster(cfg)
	t2 := time.Now()

	for _, ext := range extents {
		c.cl.CreateWarmFile(ext.File, ext.Size)
	}
	t3 := time.Now()

	acs := make([]nas.AsyncClient, w.clients)
	for i := range acs {
		if w.system == "NFS" {
			_, base := c.cl.StripedNFSClients(i, nfs.Standard)
			acs[i] = nas.NewAsync(base, w.depth)
			continue
		}
		cc := c.cl.StripedCachedClient(i, core.Config{
			BlockSize:  block,
			DataBlocks: max(fileBlocks/4, 2),
			Headers:    fileBlocks + 64,
			UseORDMA:   w.system == "ODAFS",
		})
		c.cached = append(c.cached, cc)
		acs[i] = cc.Async(w.depth)
	}
	c.results = make([]*workload.ReplayResult, w.clients)
	c.errs = make([]error, w.clients)
	c.recs = make([]*obs.Recorder, w.clients)
	if traced {
		for i := range c.recs {
			rc, err := obs.NewRecorder(len(c.tr))
			if err != nil {
				c.cl.Close()
				return nil, fmt.Errorf("workload %s: %w", w.name, err)
			}
			c.recs[i] = rc
		}
	}
	// Client i's replay clock starts i/clients of one interarrival late,
	// so identical per-client arrival processes interleave instead of
	// issuing in lockstep; utilization epochs start once every client's
	// clock has (the fabric sweep's convention).
	stagger := sim.Duration(float64(sim.Second)/w.gen.Rate) / sim.Duration(w.clients)
	started := 0
	onStart := func(sim.Time) {
		if started++; started == w.clients {
			c.cl.MarkServerEpochs()
		}
	}
	for i := range acs {
		c.cl.Go(fmt.Sprintf("client%d", i), func(p *sim.Proc) {
			if d := stagger * sim.Duration(i); d > 0 {
				p.Sleep(d)
			}
			c.results[i], c.errs[i] = workload.ReplayObserved(p, acs[i], c.tr, onStart, c.recs[i])
		})
	}
	t4 := time.Now()
	c.setup = setupSplit{traceGen: t1.Sub(t0), build: t2.Sub(t1), warm: t3.Sub(t2), mount: t4.Sub(t3), wall: t4.Sub(t0)}
	return c, nil
}

// run drives the simulation to quiescence and returns the host time it
// took. The run stops once at the replay's simulated midpoint, where
// pause (when non-nil) runs outside the timed span.
func (c *cell) run(pause func()) time.Duration {
	c.cl.Fab.MustArm()
	mid := sim.Time(c.tr.Duration() / 2)
	t0 := time.Now()
	c.cl.S.RunUntil(mid)
	d := time.Since(t0)
	if pause != nil {
		pause()
	}
	t1 := time.Now()
	c.cl.S.Run()
	return d + time.Since(t1)
}

// close tears the simulation down and waits, up to a bound, for its
// process goroutines to exit so the next repetition starts from the
// same runtime state.
func (c *cell) close(goroutines int) {
	c.cl.Close()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
}

// simOut is what one repetition computed, read off the simulation. Every
// field is a pure function of the workload and seed.
type simOut struct {
	ops, failed, bytes, stalls int64
	maxOutstanding             int
	events                     uint64
	first, last                sim.Time
	mbps, p50us, p99us         float64
	serverCPUPct, clientCPUPct float64
	localHit, ordmaOK          float64
	cacheHit, tlbHit           float64
	wbStallMs, wbBlocksFlush   float64
	diskBusyPct                float64
	trunkUpPct, trunkDownPct   float64
	trunkBacklogUs             float64
}

// simSeconds is the replay's simulated span, first start to last
// completion.
func (o simOut) simSeconds() float64 { return o.last.Sub(o.first).Seconds() }

// digest fingerprints every simulated output. Floats print in their
// shortest exact form, so equal digests mean bit-identical results.
func (o simOut) digest() string {
	return fmt.Sprintf("events=%d ops=%d failed=%d bytes=%d stalls=%d maxout=%d span=[%d,%d] mbps=%v p50=%v p99=%v cpu=%v/%v core=%v/%v cache=%v tlb=%v wb=%v/%v disk=%v trunk=%v/%v/%v",
		o.events, o.ops, o.failed, o.bytes, o.stalls, o.maxOutstanding, o.first, o.last,
		o.mbps, o.p50us, o.p99us, o.serverCPUPct, o.clientCPUPct, o.localHit, o.ordmaOK,
		o.cacheHit, o.tlbHit, o.wbStallMs, o.wbBlocksFlush, o.diskBusyPct,
		o.trunkUpPct, o.trunkDownPct, o.trunkBacklogUs)
}

// collect reads the finished simulation's outputs.
func (c *cell) collect() simOut {
	o := simOut{events: c.cl.S.Events()}
	var lat metrics.Hist
	for i, res := range c.results {
		if res == nil {
			continue
		}
		lat.Merge(&res.Lat)
		o.ops += res.Ops
		o.failed += res.Errors
		o.bytes += res.Bytes
		o.stalls += res.Stalls
		o.maxOutstanding = max(o.maxOutstanding, res.MaxOutstanding)
		if i == 0 || res.Start < o.first {
			o.first = res.Start
		}
		o.last = max(o.last, res.Start.Add(res.Elapsed))
	}
	if s := o.simSeconds(); s > 0 {
		o.mbps = float64(o.bytes) / 1e6 / s
	}
	o.p50us = lat.Quantile(0.50).Micros()
	o.p99us = lat.Quantile(0.99).Micros()

	var tlbHits, tlbAll, flushes, flushed uint64
	for _, sh := range c.cl.Shards {
		o.serverCPUPct = max(o.serverCPUPct, sh.Host.CPU.Utilization()*100)
		o.diskBusyPct = max(o.diskBusyPct, sh.Disk.Utilization()*100)
		st := sh.NIC.StatsSnapshot()
		tlbHits += st.TLBHits
		tlbAll += st.TLBHits + st.TLBMisses
		if sh.WB != nil {
			ws := sh.WB.Stats()
			o.wbStallMs += float64(ws.StallTime) / 1e6
			flushes += ws.Flushes
			flushed += ws.BlocksFlushed
		}
	}
	for _, n := range c.cl.Nodes {
		o.clientCPUPct = max(o.clientCPUPct, n.Host.CPU.Utilization()*100)
	}
	o.tlbHit = ratio(tlbHits, tlbAll)
	o.wbBlocksFlush = ratio(flushed, flushes)

	var local, reads, ordma, ordmaOK, dataHits, dataAll uint64
	for _, cc := range c.cached {
		st, cs := cc.Stats(), cc.CacheStats()
		local += st.LocalHits
		ordma += st.ORDMAReads
		ordmaOK += st.ORDMASuccesses
		dataHits += cs.DataHits
		dataAll += cs.DataHits + cs.DataMisses
	}
	for _, r := range c.tr {
		if r.Kind == nas.OpRead {
			reads++
		}
	}
	if len(c.cached) > 0 {
		o.localHit = ratio(local, reads*uint64(len(c.cached)))
	}
	o.ordmaOK = ratio(ordmaOK, ordma)
	o.cacheHit = ratio(dataHits, dataAll)

	if c.cl.Fab.Leaves() > 1 {
		// Every shard racks onto leaf 0: the storage leaf's trunks carry
		// all client traffic.
		ts := c.cl.Fab.TrunkStats(0)
		o.trunkUpPct = ts.UpUtil * 100
		o.trunkDownPct = ts.DownUtil * 100
		o.trunkBacklogUs = ts.MaxBacklog.Micros()
	}
	return o
}

func ratio(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// check verifies a fault-free replay: every client completed every
// record without error and moved exactly the bytes its trace requested.
func (c *cell) check() error {
	want := c.tr.Bytes()
	for i, res := range c.results {
		switch {
		case res == nil:
			return fmt.Errorf("client %d: replay never completed", i)
		case c.errs[i] != nil:
			return fmt.Errorf("client %d: %w", i, c.errs[i])
		case res.Errors != 0:
			return fmt.Errorf("client %d: %d failed ops", i, res.Errors)
		case res.Ops != int64(len(c.tr)):
			return fmt.Errorf("client %d: completed %d of %d ops", i, res.Ops, len(c.tr))
		case res.Bytes != want:
			return fmt.Errorf("client %d: moved %d bytes, trace requested %d", i, res.Bytes, want)
		}
	}
	return nil
}
