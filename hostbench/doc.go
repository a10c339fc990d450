// Command hostbench measures what the simulator costs to run: host time,
// not simulated time. It replays one of three fixed open-loop Poisson
// traces (simulated time, bounded client queues, stalls counted; server
// caches warm, client caches cold) through the same exported
// constructors the experiments use, one cell at a time on one P
// (exper.SetParallelism(1), GOMAXPROCS 1), and prints one JSON line:
//
//	bash hostbench/run.sh --workload fleet-fabric --seed 1 --seconds 20 --trace 0
//
// End-to-end metrics come from untraced repetitions after one untimed
// warm-up, repeated until --seconds of host time is spent (at least
// three; at least five set-ups) and reported as medians. Each run starts
// from a freshly collected heap, so GC cycles fall at the same
// allocation points in every repetition:
//
//   - sim_ops_per_s: simulated ops completed per host second of the run,
//     set-up excluded.
//   - setup_s: host seconds from trace generation through cluster build,
//     warm-up and mounts.
//   - live_mem_mb: live Go heap objects plus goroutine stacks in use,
//     read after a forced GC at the replay's simulated midpoint with the
//     run timer paused.
//
// With --trace 1 one more repetition runs with every client's span
// recorder armed and a CPU profile bracketing only the run, and the
// per-layer metrics are reported instead: the profile folded by the
// package of each sample's leaf frame (cpu.*, runtime frames split into
// handoff, alloc, GC and other), allocation and event counts, the set-up
// split, the simulated-clock phase split (obs.*), and the simulated
// outputs (model.*, workload.*, host.* and the layer counters). The
// simulated outputs are outputs, not performance: they must be
// bit-identical across repetitions, traced or not, for a given seed, and
// a change to one is a model change.
//
// Every repetition is checked: each op completes without error,
// completed bytes equal the trace's requested bytes, and the digest of
// the simulated outputs matches the first repetition's. A repetition
// that fails counts its ops as failed. The CPU shares must sum to 100% of
// the run's samples, the set-up spans to setup_s, and the phase means to
// the mean span wall time plus the time fanned-out phases overlapped.
//
// # Workloads
//
// fleet-fabric: 192 cached DAFS clients (no ORDMA) at depth 8 against 8
// shards on the storage leaf of a 4-leaf/3-spine fabric at 2:1, each
// replaying exper.FabricGen's uniform 70/30 mix (~49k ops). It has the
// most procs and events per op, so the event heap and proc handoff
// dominate host time; netsim trunks and 192 client nodes' memory show up
// only here.
//
// odafs-zipf-read: one ODAFS client at depth 64 against 8 shards on the
// star, 90% reads with Zipf 0.9 files and offsets over 8 x 80 MB files
// (80k ops) and a client cache of a quarter of the footprint. The client
// cache, ORDMA and the NIC TPT/TLB model do the run's work; warming every
// shard's TLB once per file dominates set-up. It has the fewest procs,
// so the lowest kernel share.
//
// nfs-writeback: one standard-NFS client at depth 64 against 4 shards on
// the star, 30% reads, write-behind with exper.AutoWBConfig marks and a
// commit every exper.WriteMixCommitEvery writes, destage-limited. Writes
// run beside reads on the same server cache and file system; UDP/IP
// fragmentation, RPC and nfsd workers, the flusher and the disk run only
// here. It has the deepest event heap per op.
//
// # Predictions
//
// Which end-to-end metric each per-layer metric should move, where it
// should move and where it should stay flat:
//
//	layer metric(s)                                   moves            move on / flat on
//	cpu.sim cpu.container_heap cpu.rt_handoff         sim_ops_per_s    fleet-fabric, nfs-writeback /
//	  sim.events_per_op sim.ns_per_event                                 least on odafs-zipf-read
//	go.allocs_per_op go.alloc_bytes_per_op            sim_ops_per_s,   all three; live_mem_mb most
//	  go.gc_cycles cpu.rt_alloc cpu.rt_gc               live_mem_mb      on fleet-fabric
//	setup.trace_gen_s setup.cluster_build_s           setup_s          warm on odafs-zipf-read, build and
//	  setup.warm_s setup.mount_s                                         mount on fleet-fabric /
//	                                                                     warm flat on fleet-fabric
//	cpu.core cpu.cache cpu.nic core.local_hit_ratio   sim_ops_per_s    odafs-zipf-read / nfs-writeback
//	  core.ordma_success_ratio cache.data_hit_ratio                      (NFS bypasses them)
//	  nic.tlb_hit_ratio
//	cpu.udpip cpu.rpc cpu.nfs cpu.wb cpu.fsim         sim_ops_per_s    nfs-writeback / odafs-zipf-read,
//	  wb.stall_ms wb.blocks_per_flush                                    fleet-fabric
//	  fsim.disk_busy_max_pct
//	cpu.netsim netsim.trunk_up_pct                    sim_ops_per_s    fleet-fabric / the two star
//	  netsim.trunk_down_pct netsim.trunk_backlog_max_us                  workloads
//	cpu.<pkg> for the rest, cpu.rt_other, cpu.other   -                completes the split
//	workload.* host.* model.* sim.events              none: exact      identical for any simulator-only
//	                                                                     change; a difference flags a
//	                                                                     model change
//	obs.phase_mean_us.* obs.overlap_mean_us           none             simulated-clock split of the
//	  obs.trace_overhead_pct                                             traced repetition
//
// model.table2_err_pct and model.table3_err_pct are the mean absolute
// relative error of exper.Table2 and exper.Table3 at full scale against
// the paper's values: reported, never gated.
package main
