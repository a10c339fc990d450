package core

import (
	"testing"

	"danas/internal/dafs"
	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/netsim"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/stripe"
)

type rig struct {
	s          *sim.Scheduler
	p          *host.Params
	fs         *fsim.FS
	sc         *fsim.ServerCache
	srv        *dafs.Server
	serverHost *host.Host
	serverNIC  *nic.NIC
	fab        *netsim.Fabric
	cfg        netsim.LineConfig
	n          int
}

func newRig(t *testing.T, serverCacheBlocks int) *rig {
	t.Helper()
	s := sim.New()
	t.Cleanup(s.Close)
	p := host.Default()
	fab := netsim.NewFabric(s, p.SwitchLatency)
	cfg := netsim.LineConfig{Bandwidth: p.LinkBandwidth, Overhead: p.FrameOverhead, PropDelay: p.LinkPropDelay}
	sh := host.New(s, "server", p)
	sn := nic.New(sh, fab.AddPort("server", cfg))
	fs := fsim.NewFS()
	disk := fsim.NewDisk(s, "disk", p.DiskSeek, p.DiskBW)
	sc := fsim.NewServerCache(fs, disk, 4096, serverCacheBlocks)
	srv := dafs.NewServer(s, sn, fs, sc, true)
	return &rig{s: s, p: p, fs: fs, sc: sc, srv: srv, serverHost: sh, serverNIC: sn, fab: fab, cfg: cfg}
}

func (r *rig) newClient(t *testing.T, cfg Config) *Client {
	t.Helper()
	r.n++
	name := "client" + string(rune('A'+r.n-1))
	ch := host.New(r.s, name, r.p)
	cn := nic.New(ch, r.fab.AddPort(name, r.cfg))
	return NewClient(r.s, cn, [][]*dafs.Server{{r.srv}}, nic.Poll, cfg, stripe.Single(), stripe.AckSync)
}

func odafsCfg() Config {
	return Config{BlockSize: 4096, DataBlocks: 64, Headers: 4096, UseORDMA: true}
}

func TestSecondPassUsesORDMA(t *testing.T) {
	r := newRig(t, 1<<16)
	f, _ := r.fs.Create("data", 256*4096)
	r.sc.Warm(f)
	c := r.newClient(t, odafsCfg())
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		// First pass: RPC, populating the directory.
		for off := int64(0); off < h.Size; off += 4096 {
			if _, err := c.Read(p, h, off, 4096, 1); err != nil {
				t.Errorf("pass1 read: %v", err)
				return
			}
		}
		st1 := c.Stats()
		if st1.ORDMAReads != 0 || st1.RPCReads != 256 {
			t.Errorf("pass1 stats %+v", st1)
		}
		// Second pass: data blocks (64) mostly evicted, headers (4096)
		// retain references -> ORDMA.
		for off := int64(0); off < h.Size; off += 4096 {
			if _, err := c.Read(p, h, off, 4096, 1); err != nil {
				t.Errorf("pass2 read: %v", err)
				return
			}
		}
		st2 := c.Stats()
		if st2.ORDMASuccesses < 150 {
			t.Errorf("pass2 ORDMA successes %d, want most of 192 evicted blocks", st2.ORDMASuccesses)
		}
		if st2.ORDMAFaults != 0 {
			t.Errorf("unexpected faults: %+v", st2)
		}
	})
	r.s.Run()
}

func TestORDMABypassesServerCPU(t *testing.T) {
	r := newRig(t, 1<<16)
	f, _ := r.fs.Create("data", 64*4096)
	r.sc.Warm(f)
	cfg := odafsCfg()
	cfg.DataBlocks = 32 // half the file: population evicts the early blocks
	c := r.newClient(t, cfg)
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		if err := c.PopulateDirectory(p, h); err != nil {
			t.Errorf("populate: %v", err)
			return
		}
		// Blocks 0..31 were demoted to empty headers; their references
		// remain. Re-reading them must be pure ORDMA: zero server CPU.
		// Pre-warm the NIC TLB as the paper's setup does (§5.2).
		r.serverNIC.TPT.WarmTLB()
		r.serverHost.CPU.MarkEpoch()
		before := c.Stats()
		for off := int64(0); off < 32*4096; off += 4096 {
			if _, err := c.Read(p, h, off, 4096, 1); err != nil {
				t.Errorf("read: %v", err)
				return
			}
		}
		after := c.Stats()
		if got := after.ORDMASuccesses - before.ORDMASuccesses; got != 32 {
			t.Errorf("ORDMA successes %d, want 32", got)
		}
		if busy := r.serverHost.CPU.BusyTime(); busy != 0 {
			t.Errorf("server CPU busy %v during pure ORDMA reads, want 0", busy)
		}
	})
	r.s.Run()
}

func TestFaultFallsBackToRPCAndRefreshes(t *testing.T) {
	r := newRig(t, 1<<16)
	f, _ := r.fs.Create("data", 64*4096)
	r.sc.Warm(f)
	cfg := odafsCfg()
	cfg.DataBlocks = 32 // population leaves blocks 0..31 as ref-only headers
	c := r.newClient(t, cfg)
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		if err := c.PopulateDirectory(p, h); err != nil {
			t.Errorf("populate: %v", err)
			return
		}
		// The server reclaims the file's cache blocks: every export is
		// invalidated, but the client directory is NOT told (§4.2(b):
		// lazy consistency, no client tracking).
		r.sc.EvictFile(f.ID)
		before := c.Stats()
		// Reads of the ref-only blocks try ORDMA, catch the exception,
		// and recover over RPC — which also refreshes the reference.
		for off := int64(0); off < 32*4096; off += 4096 {
			if _, err := c.Read(p, h, off, 4096, 1); err != nil {
				t.Errorf("stale read: %v", err)
				return
			}
		}
		after := c.Stats()
		if got := after.ORDMAFaults - before.ORDMAFaults; got != 32 {
			t.Errorf("faults %d, want 32", got)
		}
		if got := after.RPCReads - before.RPCReads; got != 32 {
			t.Errorf("fallback RPCs %d, want 32", got)
		}
		if after.ORDMASuccesses != before.ORDMASuccesses {
			t.Error("unexpected ORDMA successes against invalidated exports")
		}
	})
	r.s.Run()
	if st := r.serverNIC.StatsSnapshot(); st.Exceptions == 0 {
		t.Fatal("server NIC reported no exceptions")
	}
}

func TestOpenDelegationLocal(t *testing.T) {
	r := newRig(t, 1<<16)
	f, _ := r.fs.Create("data", 4096)
	r.sc.Warm(f)
	c := r.newClient(t, odafsCfg())
	r.s.Go("app", func(p *sim.Proc) {
		h1, err := c.Open(p, "data")
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		calls := c.Inner().Calls
		for i := 0; i < 10; i++ {
			h2, _ := c.Open(p, "data")
			if h2 != h1 {
				t.Error("delegated open returned different handle")
			}
			c.Close(p, h2)
		}
		if c.Inner().Calls != calls {
			t.Errorf("delegated opens went remote: %d extra calls", c.Inner().Calls-calls)
		}
		if c.Stats().LocalOpens != 10 {
			t.Errorf("local opens %d", c.Stats().LocalOpens)
		}
	})
	r.s.Run()
}

func TestCachedReadLocalHit(t *testing.T) {
	r := newRig(t, 1<<16)
	f, _ := r.fs.Create("data", 64*4096)
	r.sc.Warm(f)
	c := r.newClient(t, odafsCfg())
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		c.Read(p, h, 0, 4096, 1)
		calls := c.Inner().Calls
		gets := c.Stats().ORDMAReads
		c.Read(p, h, 0, 4096, 1) // hit
		if c.Inner().Calls != calls || c.Stats().ORDMAReads != gets {
			t.Error("cache hit went remote")
		}
		if c.Stats().LocalHits != 1 {
			t.Errorf("local hits %d", c.Stats().LocalHits)
		}
	})
	r.s.Run()
}

func TestMultiBlockReadFetchesConcurrently(t *testing.T) {
	r := newRig(t, 1<<16)
	f, _ := r.fs.Create("data", 1<<20)
	r.sc.Warm(f)
	c := r.newClient(t, odafsCfg())
	var serial, burst sim.Duration
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		// Serial: 16 sequential single-block reads.
		start := p.Now()
		for i := int64(0); i < 16; i++ {
			c.Read(p, h, i*4096, 4096, 1)
		}
		serial = p.Now().Sub(start)
		// Burst: one 64KB read = 16 blocks fetched with read-ahead.
		start = p.Now()
		c.Read(p, h, 16*4096, 64*1024, 1)
		burst = p.Now().Sub(start)
	})
	r.s.Run()
	if burst >= serial/2 {
		t.Fatalf("read-ahead not concurrent: burst=%v serial=%v", burst, serial)
	}
}

func TestDAFSModeNeverORDMAs(t *testing.T) {
	r := newRig(t, 1<<16)
	f, _ := r.fs.Create("data", 64*4096)
	r.sc.Warm(f)
	cfg := odafsCfg()
	cfg.UseORDMA = false
	c := r.newClient(t, cfg)
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		for pass := 0; pass < 2; pass++ {
			for off := int64(0); off < h.Size; off += 4096 {
				c.Read(p, h, off, 4096, 1)
			}
		}
	})
	r.s.Run()
	if st := c.Stats(); st.ORDMAReads != 0 {
		t.Fatalf("plain DAFS issued %d ORDMAs", st.ORDMAReads)
	}
}

func TestWriteThroughUpdatesCache(t *testing.T) {
	r := newRig(t, 1<<16)
	f, _ := r.fs.Create("data", 64*4096)
	r.sc.Warm(f)
	c := r.newClient(t, odafsCfg())
	r.s.Go("app", func(p *sim.Proc) {
		h, _ := c.Open(p, "data")
		if _, err := c.Write(p, h, 0, 4096, 1); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		hits := c.Stats().LocalHits
		c.Read(p, h, 0, 4096, 1)
		if c.Stats().LocalHits != hits+1 {
			t.Error("written block not cached")
		}
	})
	r.s.Run()
}
