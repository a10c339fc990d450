package bdb

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

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
	client *core.Client
	ch     *host.Host
}

func newRig(t *testing.T) *rig {
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
	sc := fsim.NewServerCache(fs, disk, 16*1024, 1<<16)
	srv := dafs.NewServer(s, sn, fs, sc, true)
	ch := host.New(s, "client", p)
	cn := nic.New(ch, fab.AddPort("client", cfg))
	cl := core.NewClient(s, cn, [][]*dafs.Server{{srv}}, nic.Poll, core.Config{
		BlockSize: 16 * 1024, DataBlocks: 256, Headers: 8192, UseORDMA: true,
	}, stripe.Single(), stripe.AckSync)
	return &rig{s: s, fs: fs, client: cl, ch: ch}
}

func val(key uint64, size int) []byte {
	out := make([]byte, size)
	for i := range out {
		out[i] = byte(key*31 + uint64(i)*7)
	}
	return out
}

func TestCreatePutGet(t *testing.T) {
	r := newRig(t)
	r.s.Go("app", func(p *sim.Proc) {
		db, err := Create(p, r.client, r.fs, r.ch, "test.db", 1<<20)
		if err != nil {
			t.Errorf("create: %v", err)
			return
		}
		for k := uint64(1); k <= 50; k++ {
			if err := db.Put(p, k, val(k, 100)); err != nil {
				t.Errorf("put %d: %v", k, err)
				return
			}
		}
		for k := uint64(1); k <= 50; k++ {
			got, err := db.Get(p, k)
			if err != nil {
				t.Errorf("get %d: %v", k, err)
				return
			}
			if !bytes.Equal(got, val(k, 100)) {
				t.Errorf("get %d: wrong value", k)
				return
			}
		}
		if _, err := db.Get(p, 9999); err != ErrNotFound {
			t.Errorf("missing key: %v", err)
		}
	})
	r.s.Run()
}

func TestLargeValuesSpanOverflowPages(t *testing.T) {
	r := newRig(t)
	r.s.Go("app", func(p *sim.Proc) {
		db, _ := Create(p, r.client, r.fs, r.ch, "big.db", 4<<20)
		want := val(7, 60*1024) // the paper's 60KB records
		if err := db.Put(p, 7, want); err != nil {
			t.Errorf("put: %v", err)
			return
		}
		got, err := db.Get(p, 7)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("60KB round trip failed: err=%v len=%d", err, len(got))
		}
		e, _ := db.Lookup(p, 7)
		if len(e.PagesOf()) != (60*1024+ovCap-1)/ovCap {
			t.Errorf("pages %d", len(e.PagesOf()))
		}
	})
	r.s.Run()
}

func TestPersistAcrossOpen(t *testing.T) {
	r := newRig(t)
	r.s.Go("app", func(p *sim.Proc) {
		db, _ := Create(p, r.client, r.fs, r.ch, "persist.db", 1<<20)
		for k := uint64(0); k < 200; k++ {
			db.Put(p, k, val(k, 300))
		}
		if err := db.Sync(p); err != nil {
			t.Errorf("sync: %v", err)
			return
		}
		// Reopen with a cold cache.
		db2, err := Open(p, r.client, r.fs, r.ch, "persist.db", 1<<20)
		if err != nil {
			t.Errorf("open: %v", err)
			return
		}
		for k := uint64(0); k < 200; k += 17 {
			got, err := db2.Get(p, k)
			if err != nil || !bytes.Equal(got, val(k, 300)) {
				t.Errorf("reopened get %d failed: %v", k, err)
				return
			}
		}
	})
	r.s.Run()
}

func TestSplitsGrowTree(t *testing.T) {
	r := newRig(t)
	r.s.Go("app", func(p *sim.Proc) {
		db, _ := Create(p, r.client, r.fs, r.ch, "deep.db", 8<<20)
		n := maxLeafEntries*3 + 10 // forces leaf splits and a root split
		for k := 0; k < n; k++ {
			if err := db.Put(p, uint64(k), val(uint64(k), 10)); err != nil {
				t.Errorf("put %d: %v", k, err)
				return
			}
		}
		if db.height < 2 {
			t.Errorf("height %d after %d inserts", db.height, n)
		}
		// Scan sees all keys in order.
		var last uint64
		count := 0
		db.Scan(p, func(e Entry) bool {
			if count > 0 && e.Key <= last {
				t.Errorf("scan out of order at %d", e.Key)
				return false
			}
			last = e.Key
			count++
			return true
		})
		if count != n {
			t.Errorf("scan saw %d of %d", count, n)
		}
	})
	r.s.Run()
}

func TestOverwrite(t *testing.T) {
	r := newRig(t)
	r.s.Go("app", func(p *sim.Proc) {
		db, _ := Create(p, r.client, r.fs, r.ch, "ow.db", 1<<20)
		db.Put(p, 5, val(5, 100))
		db.Put(p, 5, val(99, 2000))
		got, err := db.Get(p, 5)
		if err != nil || !bytes.Equal(got, val(99, 2000)) {
			t.Errorf("overwrite failed: %v", err)
		}
	})
	r.s.Run()
}

func TestPrefetchReducesLatency(t *testing.T) {
	// A dedicated rig whose client block cache is far smaller than the
	// record set, so record reads actually go to the server.
	smallRig := func() *rig {
		s := sim.New()
		t.Cleanup(s.Close)
		p := host.Default()
		fab := netsim.NewFabric(s, p.SwitchLatency)
		cfg := netsim.LineConfig{Bandwidth: p.LinkBandwidth, Overhead: p.FrameOverhead, PropDelay: p.LinkPropDelay}
		sh := host.New(s, "server", p)
		sn := nic.New(sh, fab.AddPort("server", cfg))
		fs := fsim.NewFS()
		disk := fsim.NewDisk(s, "disk", p.DiskSeek, p.DiskBW)
		sc := fsim.NewServerCache(fs, disk, 16*1024, 1<<16)
		srv := dafs.NewServer(s, sn, fs, sc, true)
		ch := host.New(s, "client", p)
		cn := nic.New(ch, fab.AddPort("client", cfg))
		cl := core.NewClient(s, cn, [][]*dafs.Server{{srv}}, nic.Poll, core.Config{
			BlockSize: 16 * 1024, DataBlocks: 8, Headers: 8192, UseORDMA: true,
		}, stripe.Single(), stripe.AckSync)
		return &rig{s: s, fs: fs, client: cl, ch: ch}
	}
	build := func() (*rig, []Entry) {
		r := smallRig()
		var entries []Entry
		r.s.Go("build", func(p *sim.Proc) {
			db, _ := Create(p, r.client, r.fs, r.ch, "pf.db", 16<<20)
			for k := uint64(0); k < 64; k++ {
				db.Put(p, k, val(k, 30*1024))
			}
			db.Sync(p)
			db.Scan(p, func(e Entry) bool { entries = append(entries, e); return true })
		})
		r.s.Run()
		return r, entries
	}
	measure := func(prefetch bool) sim.Duration {
		r, entries := build()
		var elapsed sim.Duration
		r.s.Go("read", func(p *sim.Proc) {
			db, _ := Open(p, r.client, r.fs, r.ch, "pf.db", 64<<20)
			start := p.Now()
			if prefetch {
				var pages []PageID
				for _, e := range entries {
					pages = append(pages, e.PagesOf()...)
				}
				db.pager.Prefetch(p, pages, 16)
			}
			for _, e := range entries {
				if _, err := db.readValue(p, e.Page, e.Len); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
			elapsed = p.Now().Sub(start)
		})
		r.s.Run()
		return elapsed
	}
	with, without := measure(true), measure(false)
	if with >= without {
		t.Fatalf("prefetch did not help: with=%v without=%v", with, without)
	}
}

func TestEqualityJoin(t *testing.T) {
	r := newRig(t)
	r.s.Go("app", func(p *sim.Proc) {
		outer, _ := Create(p, r.client, r.fs, r.ch, "outer.db", 1<<20)
		inner, _ := Create(p, r.client, r.fs, r.ch, "inner.db", 16<<20)
		// Outer has even keys 0..38; inner has all keys 0..29.
		for k := uint64(0); k < 40; k += 2 {
			outer.Put(p, k, val(k, 16))
		}
		for k := uint64(0); k < 30; k++ {
			inner.Put(p, k, val(k, 60*1024))
		}
		res, err := EqualityJoin(p, outer, inner, 4096, 8)
		if err != nil {
			t.Errorf("join: %v", err)
			return
		}
		if res.Records != 15 { // even keys 0..28
			t.Errorf("matched %d records, want 15", res.Records)
		}
		if res.Bytes != 15*60*1024 {
			t.Errorf("bytes %d", res.Bytes)
		}
		if res.Copied != 15*4096 {
			t.Errorf("copied %d", res.Copied)
		}
	})
	r.s.Run()
}

// Property: Put/Get round-trips arbitrary small key/value sets.
func TestPutGetProperty(t *testing.T) {
	idx := 0
	f := func(keys []uint16, sizes []uint16) bool {
		if len(keys) == 0 || len(keys) > 40 {
			return true
		}
		idx++
		r := newRig(t)
		defer r.s.Close()
		ok := true
		r.s.Go("app", func(p *sim.Proc) {
			db, err := Create(p, r.client, r.fs, r.ch, fmt.Sprintf("prop%d.db", idx), 4<<20)
			if err != nil {
				ok = false
				return
			}
			want := make(map[uint64]int)
			for i, k := range keys {
				size := 1
				if len(sizes) > 0 {
					size = int(sizes[i%len(sizes)])%5000 + 1
				}
				want[uint64(k)] = size
				if db.Put(p, uint64(k), val(uint64(k), size)) != nil {
					ok = false
					return
				}
			}
			for k, size := range want {
				got, err := db.Get(p, k)
				if err != nil || !bytes.Equal(got, val(k, size)) {
					ok = false
					return
				}
			}
		})
		r.s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
