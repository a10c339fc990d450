package postmark

import (
	"testing"

	"danas/internal/core"
	"danas/internal/dafs"
	"danas/internal/fsim"
	"danas/internal/host"
	"danas/internal/netsim"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/stripe"
)

type rig struct {
	s      *sim.Scheduler
	fs     *fsim.FS
	sc     *fsim.ServerCache
	client *core.Client
	ch     *host.Host
	sh     *host.Host
}

func newRig(t *testing.T, dataBlocks int, ordma bool) *rig {
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
	sc := fsim.NewServerCache(fs, disk, 4096, 1<<16)
	srv := dafs.NewServer(s, sn, fs, sc, true)
	ch := host.New(s, "client", p)
	cn := nic.New(ch, fab.AddPort("client", cfg))
	cl := core.NewClient(s, cn, [][]*dafs.Server{{srv}}, nic.Poll, core.Config{
		BlockSize: 4096, DataBlocks: dataBlocks, Headers: 1 << 16, UseORDMA: ordma,
	}, stripe.Single(), stripe.AckSync)
	return &rig{s: s, fs: fs, sc: sc, client: cl, ch: ch, sh: sh}
}

func TestReadOnlyRun(t *testing.T) {
	r := newRig(t, 64, true)
	cfg := DefaultConfig()
	cfg.Files = 100
	cfg.Transactions = 500
	var res Result
	r.s.Go("pm", func(p *sim.Proc) {
		b := New(r.client, r.ch, cfg)
		if err := b.Setup(p); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		var err error
		res, err = b.Run(p)
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	r.s.Run()
	if res.Txns != 500 || res.Reads != 500 {
		t.Fatalf("result %+v", res)
	}
	if res.Appends+res.Creates+res.Deletes != 0 {
		t.Fatalf("read-only run mutated: %+v", res)
	}
	if res.TxnsPerSec() <= 0 {
		t.Fatal("no throughput computed")
	}
	if res.BytesRead != 500*4096 {
		t.Fatalf("bytes read %d", res.BytesRead)
	}
}

func TestHitRatioTracksCacheSize(t *testing.T) {
	// Client cache of k blocks over n 4KB files: steady-state hit ratio
	// ~ k/n under uniform access.
	run := func(dataBlocks int) float64 {
		r := newRig(t, dataBlocks, true)
		cfg := DefaultConfig()
		cfg.Files = 200
		cfg.Transactions = 3000
		var hitRatio float64
		r.s.Go("pm", func(p *sim.Proc) {
			b := New(r.client, r.ch, cfg)
			if err := b.Setup(p); err != nil {
				t.Errorf("setup: %v", err)
				return
			}
			if _, err := b.Run(p); err != nil {
				t.Errorf("warm run: %v", err)
				return
			}
			st0 := r.client.CacheStats()
			if _, err := b.Run(p); err != nil {
				t.Errorf("run: %v", err)
				return
			}
			st1 := r.client.CacheStats()
			hits := st1.DataHits - st0.DataHits
			misses := st1.DataMisses - st0.DataMisses
			hitRatio = float64(hits) / float64(hits+misses)
		})
		r.s.Run()
		return hitRatio
	}
	quarter := run(50) // 50/200 = 25%
	threeQ := run(150) // 150/200 = 75%
	if quarter < 0.15 || quarter > 0.35 {
		t.Fatalf("25%% config measured hit ratio %.2f", quarter)
	}
	if threeQ < 0.65 || threeQ > 0.85 {
		t.Fatalf("75%% config measured hit ratio %.2f", threeQ)
	}
}

func TestODAFSBeatsDAFS(t *testing.T) {
	run := func(ordma bool) float64 {
		r := newRig(t, 50, ordma)
		cfg := DefaultConfig()
		cfg.Files = 200
		cfg.Transactions = 2000
		var tps float64
		r.s.Go("pm", func(p *sim.Proc) {
			b := New(r.client, r.ch, cfg)
			if err := b.Setup(p); err != nil {
				t.Errorf("setup: %v", err)
				return
			}
			b.Run(p) // warm pass collects references
			res, err := b.Run(p)
			if err != nil {
				t.Errorf("run: %v", err)
				return
			}
			tps = res.TxnsPerSec()
		})
		r.s.Run()
		return tps
	}
	odafs, dafs := run(true), run(false)
	if odafs <= dafs {
		t.Fatalf("ODAFS %.0f txns/s <= DAFS %.0f txns/s", odafs, dafs)
	}
}

func TestFullMixWithCreatesAndDeletes(t *testing.T) {
	r := newRig(t, 256, true)
	cfg := Config{
		Files: 50, MinSize: 1024, MaxSize: 8192,
		Transactions: 400, ReadRatio: 0.6, CreateDeleteRatio: 0.3,
		TxnOverhead: 3 * sim.Microsecond, Seed: 7,
	}
	var res Result
	r.s.Go("pm", func(p *sim.Proc) {
		b := New(r.client, r.ch, cfg)
		if err := b.Setup(p); err != nil {
			t.Errorf("setup: %v", err)
			return
		}
		var err error
		res, err = b.Run(p)
		if err != nil {
			t.Errorf("run: %v", err)
		}
	})
	r.s.Run()
	if res.Txns != 400 {
		t.Fatalf("txns %d", res.Txns)
	}
	if res.Appends == 0 || res.Creates == 0 || res.Deletes == 0 {
		t.Fatalf("mix not exercised: %+v", res)
	}
	if res.Reads+res.Appends != 400 {
		t.Fatalf("reads+appends = %d", res.Reads+res.Appends)
	}
}

func TestRunWithoutSetupFails(t *testing.T) {
	r := newRig(t, 64, true)
	r.s.Go("pm", func(p *sim.Proc) {
		b := New(r.client, r.ch, DefaultConfig())
		if _, err := b.Run(p); err == nil {
			t.Error("run without setup succeeded")
		}
	})
	r.s.Run()
}

func TestDeterministicWorkload(t *testing.T) {
	run := func() Result {
		r := newRig(t, 64, true)
		cfg := DefaultConfig()
		cfg.Files = 100
		cfg.Transactions = 300
		var res Result
		r.s.Go("pm", func(p *sim.Proc) {
			b := New(r.client, r.ch, cfg)
			b.Setup(p)
			res, _ = b.Run(p)
		})
		r.s.Run()
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("runs differ:\n%+v\n%+v", a, b)
	}
}
