package exper

import (
	"fmt"
	"testing"

	"danas/internal/core"
	"danas/internal/host"
	"danas/internal/nas"
	"danas/internal/sim"
	"danas/internal/stripe"
)

// TestShardedWriteKeepsReplicaSizesCoherent pins the replicated-namespace
// invariant the striped clients maintain: an extending write grows every
// shard's replica to the same size (lagging shards get a zero-length
// size update), so shard-0-sourced Open/Getattr never understates a file
// and a later whole-file pass covers all the data.
func TestShardedWriteKeepsReplicaSizesCoherent(t *testing.T) {
	const unit = 16 * 1024
	mounts := []struct {
		name string
		spec MountSpec
	}{
		{"ODAFS", MountSpec{System: "ODAFS", Cache: &core.Config{BlockSize: unit, DataBlocks: 8}}},
		{"DAFS raw", MountSpec{System: "DAFS"}},
		{"NFS hybrid", MountSpec{System: "NFS hybrid"}},
		{"NFS", MountSpec{System: "NFS"}},
	}
	for _, m := range mounts {
		t.Run(m.name, func(t *testing.T) {
			cfg := DefaultClusterConfig()
			cfg.Shards = 3
			cfg.ServerCacheBlockSize = unit
			cfg.StripeUnit = unit
			cl := NewCluster(cfg)
			defer cl.Close()
			c := cl.Mount(0, m.spec).Client
			const end = 5 * unit // last span lands on shard 1; shards 0 and 2 lag
			cl.Go("app", func(p *sim.Proc) {
				h, err := c.Create(p, "grow")
				if err != nil {
					t.Errorf("create: %v", err)
					return
				}
				if _, err := c.Write(p, h, 0, end, 1); err != nil {
					t.Errorf("write: %v", err)
					return
				}
				if h.Size != end {
					t.Errorf("canonical handle size %d, want %d", h.Size, end)
				}
				if got, err := c.Getattr(p, h); err != nil || got != end {
					t.Errorf("getattr = %d, %v — want %d", got, err, end)
				}
			})
			cl.Run()
			for si, sh := range cl.Shards {
				f, err := sh.FS.Lookup("grow")
				if err != nil {
					t.Fatalf("shard %d: %v", si, err)
				}
				if f.Size() != end {
					t.Errorf("shard %d replica size %d, want %d — sizes diverged", si, f.Size(), end)
				}
			}
		})
	}
}

// TestMountShape pins what Mount builds for every system on every fleet
// shape: the cluster, not the spec, decides single, striped or
// replicated. A raw mount has one session per copy of every shard,
// shard-major and copy-minor, each NFS session on the next port; it
// fronts them with the bare session at one shard and no replicas, one
// stripe.Group per shard when replicated, and a stripe.Client when
// striped. A cached mount is the core client alone.
func TestMountShape(t *testing.T) {
	const unit = 16 * 1024
	specs := []MountSpec{
		{System: "NFS"},
		{System: "NFS pre-posting"},
		{System: "NFS hybrid"},
		{System: "DAFS"},
		{System: "DAFS", Cache: &core.Config{BlockSize: unit, DataBlocks: 8}},
		{System: "ODAFS", Cache: &core.Config{BlockSize: unit, DataBlocks: 8}},
	}
	for _, spec := range specs {
		for _, shards := range []int{1, 2} {
			for _, replicas := range []int{0, 1} {
				name := fmt.Sprintf("%s/cached=%v/S=%d/R=%d", spec.System, spec.Cache != nil, shards, replicas)
				t.Run(name, func(t *testing.T) {
					checkMountShape(t, spec, shards, replicas)
				})
			}
		}
	}
}

func checkMountShape(t *testing.T, spec MountSpec, shards, replicas int) {
	const unit = 16 * 1024
	cfg := DefaultClusterConfig()
	cfg.Shards = shards
	cfg.Replicas = replicas
	cfg.ServerCacheBlockSize = unit
	cfg.StripeUnit = unit
	cl := NewCluster(cfg)
	defer cl.Close()
	cl.CreateWarmFile("f", 4*unit)
	firstPort := cl.nextNFSPort + 1
	m := cl.Mount(0, spec)
	width := replicas + 1

	if spec.Cache != nil {
		if m.Client != nas.Client(m.Cached) || m.Cached == nil {
			t.Fatalf("cached mount's client is %T, want its *core.Client", m.Client)
		}
		if len(m.NFS)+len(m.DAFS) != 0 {
			t.Errorf("cached mount exposes %d NFS and %d DAFS sessions, want none", len(m.NFS), len(m.DAFS))
		}
		if len(m.Sets) != shards || m.Sets[0].Width() != width {
			t.Errorf("cached mount has %d replica sets, want one per shard (%d) of width %d", len(m.Sets), shards, width)
		}
		if l := m.Cached.Layout(); l.Shards != shards || l.Replicas != replicas {
			t.Errorf("cached layout is %d shards x %d replicas, want %d x %d", l.Shards, l.Replicas, shards, replicas)
		}
		return
	}

	var sessions []nas.Client
	for _, nc := range m.NFS {
		sessions = append(sessions, nc)
	}
	for _, dc := range m.DAFS {
		sessions = append(sessions, dc)
	}
	if len(sessions) != shards*width {
		t.Fatalf("%d raw sessions, want S*(R+1) = %d", len(sessions), shards*width)
	}
	wantPorts := 0
	if spec.System != "DAFS" {
		wantPorts = len(sessions)
		if len(m.DAFS) != 0 {
			t.Errorf("%s mount built %d DAFS sessions", spec.System, len(m.DAFS))
		}
	}
	if got := cl.nextNFSPort + 1 - firstPort; got != wantPorts {
		t.Errorf("mount took %d NFS ports, want %d", got, wantPorts)
	}
	if replicas > 0 && len(m.Sets) != shards {
		t.Errorf("%d replica sets, want one per shard (%d)", len(m.Sets), shards)
	}
	if replicas == 0 && len(m.Sets) != 0 {
		t.Errorf("unreplicated raw mount built %d replica sets", len(m.Sets))
	}
	switch c := m.Client.(type) {
	case *stripe.Client:
		if shards == 1 {
			t.Error("one-shard mount is striped")
		}
	case *stripe.Group:
		if shards != 1 || replicas == 0 || c.ReplicaSet != m.Sets[0] {
			t.Errorf("mount is a bare replica group at S=%d R=%d", shards, replicas)
		}
	default:
		if shards != 1 || replicas != 0 || m.Client != sessions[0] {
			t.Errorf("mount is %T at S=%d R=%d, want the bare session only at S=1 R=0", m.Client, shards, replicas)
		}
	}

	// Session k reads k+1 times, so each copy's read count names the
	// session that reached it: shard-major, copy-minor order.
	cl.Go("probe", func(p *sim.Proc) {
		for k, sess := range sessions {
			h, err := sess.Open(p, "f")
			if err != nil {
				t.Errorf("session %d open: %v", k, err)
				return
			}
			for r := 0; r <= k; r++ {
				if _, err := sess.Read(p, h, 0, unit, 1); err != nil {
					t.Errorf("session %d read: %v", k, err)
					return
				}
			}
		}
	})
	cl.Run()
	for k := range sessions {
		sh := cl.Copy(k/width, k%width)
		reads := sh.DAFS.Reads
		if spec.System != "DAFS" {
			reads = sh.NFS.Reads
		}
		if reads != uint64(k+1) {
			t.Errorf("shard %d copy %d served %d reads, want %d (session %d)", k/width, k%width, reads, k+1, k)
		}
	}
}

// TestCreateWarmFileWarmsOwnedBlocks pins owned-block warm-up on every
// fleet shape: each copy of shard s caches and exports exactly the cache
// blocks holding bytes the layout places on s (a block straddling a
// stripe-unit boundary on every shard owning any of its bytes), the
// primaries together hold every block, and a whole-file read through a
// striped mount finds every block it asks a primary for already warm.
func TestCreateWarmFileWarmsOwnedBlocks(t *testing.T) {
	const block = 16 * 1024
	for _, shards := range []int{1, 2, 4} {
		for _, replicas := range []int{0, 1} {
			for _, unit := range []int64{block / 2, block, 2 * block} {
				name := fmt.Sprintf("S=%d/R=%d/unit=%d", shards, replicas, unit)
				t.Run(name, func(t *testing.T) {
					checkWarmOwnership(t, shards, replicas, unit, block)
				})
			}
		}
	}
}

func checkWarmOwnership(t *testing.T, shards, replicas int, unit, block int64) {
	size := 13*block + 5000 // a partial last block
	cfg := DefaultClusterConfig()
	cfg.Shards = shards
	cfg.Replicas = replicas
	cfg.ServerCacheBlockSize = block
	cfg.StripeUnit = unit
	cl := NewCluster(cfg)
	defer cl.Close()
	cl.CreateWarmFile("f", size)

	// The expected ownership, from the spans of each block.
	l := cl.Layout()
	wantBlocks := make([]int, shards)
	wantPages := make([]int, shards)
	holders := map[int64]int{} // block offset -> primaries holding it
	for off := int64(0); off < size; off += block {
		n := min(block, size-off)
		seen := map[int]bool{}
		for _, sp := range l.Spans(off, n) {
			if !seen[sp.Shard] {
				seen[sp.Shard] = true
				wantBlocks[sp.Shard]++
				wantPages[sp.Shard] += int(host.Pages(n))
			}
		}
	}
	for s, set := range cl.ReplicaSets {
		for cp, sh := range set {
			if got := sh.Cache.Len(); got != wantBlocks[s] {
				t.Errorf("shard %d copy %d caches %d blocks, owns %d", s, cp, got, wantBlocks[s])
			}
			if got := sh.NIC.TPT.Entries(); got != wantPages[s] {
				t.Errorf("shard %d copy %d exports %d pages, owns %d", s, cp, got, wantPages[s])
			}
		}
		f, err := set[0].FS.Lookup("f")
		if err != nil {
			t.Fatal(err)
		}
		for off := int64(0); off < size; off += block {
			if _, ok := set[0].Cache.Peek(f, off); ok {
				holders[off]++
			}
		}
	}
	for off := int64(0); off < size; off += block {
		// Without straddling blocks each block lives on exactly one
		// primary; with them, on at most the two shards it spans.
		if h := holders[off]; h < 1 || (unit%block == 0 && h != 1) || h > 2 {
			t.Errorf("block at %d is cached on %d primaries", off, h)
		}
	}

	for _, spec := range []MountSpec{
		{System: "DAFS"},
		{System: "NFS"},
		{System: "ODAFS", Cache: &core.Config{BlockSize: 4096, DataBlocks: 4}},
	} {
		c := cl.Mount(0, spec).Client
		cl.Go("read", func(p *sim.Proc) {
			h, err := c.Open(p, "f")
			if err != nil {
				t.Errorf("%s open: %v", spec.System, err)
				return
			}
			for off := int64(0); off < size; off += 4096 {
				if _, err := c.Read(p, h, off, min(4096, size-off), 1); err != nil {
					t.Errorf("%s read at %d: %v", spec.System, off, err)
					return
				}
			}
		})
		cl.Run()
	}
	for s, sh := range cl.Shards {
		if sh.Cache.Misses != 0 || sh.Cache.Hits == 0 {
			t.Errorf("shard %d: %d misses, %d hits reading the warm file", s, sh.Cache.Misses, sh.Cache.Hits)
		}
	}
}
