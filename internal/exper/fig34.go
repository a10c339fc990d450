package exper

import (
	"fmt"

	"danas/internal/metrics"
	"danas/internal/sim"
	"danas/internal/workload"
)

// Fig3BlockSizesKB is the x-axis of Figures 3 and 4.
var Fig3BlockSizesKB = []int{4, 8, 16, 32, 64, 128, 256, 512}

// Fig34 reproduces Figure 3 (client read throughput) and Figure 4 (client
// CPU utilization) in one set of runs: a single client performing
// application-level asynchronous read-ahead over a file warm in the server
// cache, with the application block size swept from 4 KB to 512 KB, for
// standard NFS, NFS pre-posting, NFS hybrid and DAFS.
//
// Paper shapes to reproduce: DAFS/NFS-hybrid/NFS-pp saturate the 2 Gb/s
// link (~230-235 MB/s) at >=32 KB blocks; standard NFS is flat around
// 65 MB/s, client-CPU-bound by copies; client CPU utilization declines
// with block size for the RDDP systems, DAFS lowest (<15% at >=64 KB),
// NFS-pp flattening because per-fragment work is block-size independent.
func Fig34(scale Scale) (throughput, cpu *metrics.Table) {
	throughput = metrics.NewTable("Figure 3: client read throughput (read-ahead)",
		"block KB", "MB/s", Systems...)
	cpu = metrics.NewTable("Figure 4: client CPU utilization (read-ahead)",
		"block KB", "percent", "NFS pre-posting", "NFS hybrid", "DAFS")

	fileSize := scale.bytes(96 << 20)
	type cell struct{ mbps, util float64 }
	g := RunGrid(len(Fig3BlockSizesKB), len(Systems),
		func(bi, si int) string {
			return fmt.Sprintf("fig34/%dKB/%s", Fig3BlockSizesKB[bi], Systems[si])
		},
		func(bi, si int) cell {
			var c cell
			c.mbps, c.util = fig3Point(Systems[si], fileSize, int64(Fig3BlockSizesKB[bi])*1024)
			return c
		})
	for bi, kb := range Fig3BlockSizesKB {
		for si, system := range Systems {
			r := g.At(bi, si)
			throughput.Set(float64(kb), system, r.mbps)
			if system != "NFS" {
				cpu.Set(float64(kb), system, r.util*100)
			}
		}
	}
	return throughput, cpu
}

// fig3Point runs one (system, block size) cell and returns throughput and
// client CPU utilization.
func fig3Point(system string, fileSize, block int64) (mbps, util float64) {
	cfg := DefaultClusterConfig()
	cfg.ServerCacheBlockSize = 64 * 1024
	cfg.ServerCacheBlocks = int(fileSize/(64*1024)) + 64
	cl := NewCluster(cfg)
	defer cl.Close()
	cl.CreateWarmFile("stream", fileSize)
	client := cl.Mount(0, MountSpec{System: system}).Client
	node := cl.Nodes[0]
	var res []workload.StreamResult
	cl.Go("app", func(p *sim.Proc) {
		node.Host.CPU.MarkEpoch()
		var err error
		res, err = workload.Stream(p, client, workload.StreamConfig{
			File: "stream", BlockSize: block, Window: 8, Passes: 1,
		})
		if err != nil {
			panic(fmt.Sprintf("fig3: stream: %v", err))
		}
		util = node.Host.CPU.Utilization()
	})
	cl.Run()
	return res[0].MBps(), util
}
