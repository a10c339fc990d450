package danas

import "testing"

// TestGoldenPublicAPI pins, for every Protocol, how many events a small
// fixed read/write workload executes through the public API and the
// simulated time it ends at. Both are pure functions of the model, so
// they are asserted exactly: a change to how the public cluster is
// assembled or mounted must leave them alone.
func TestGoldenPublicAPI(t *testing.T) {
	golden := map[Protocol]struct {
		events uint64
		end    Time
	}{
		NFS:           {3734, 30118518},
		NFSPrePosting: {3700, 16334980},
		NFSHybrid:     {5102, 14318892},
		DAFS:          {15870, 21388392},
		ODAFS:         {11758, 16765608},
	}
	for _, proto := range []Protocol{NFS, NFSPrePosting, NFSHybrid, DAFS, ODAFS} {
		want := golden[proto]
		cl := NewCluster()
		if err := cl.CreateWarmFile("data", 1<<20); err != nil {
			t.Fatal(err)
		}
		m := cl.Mount(proto, WithClientCache(4096, 32, 1024))
		cl.Go("app", func(p *Proc) {
			h, err := m.Open(p, "data")
			if err != nil {
				t.Errorf("%v open: %v", proto, err)
				return
			}
			// Two passes: the second misses the 32-block data cache but,
			// on ODAFS, hits the reference directory.
			for pass := 0; pass < 2; pass++ {
				for off := int64(0); off < 1<<20; off += 64 << 10 {
					if _, err := m.Read(p, h, off, 32<<10); err != nil {
						t.Errorf("%v read: %v", proto, err)
					}
				}
			}
			for off := int64(0); off < 256<<10; off += 16 << 10 {
				if _, err := m.Write(p, h, off, 8<<10); err != nil {
					t.Errorf("%v write: %v", proto, err)
				}
			}
			out, err := m.Create(p, "out")
			if err != nil {
				t.Errorf("%v create: %v", proto, err)
				return
			}
			if _, err := m.WriteData(p, out, 0, make([]byte, 20000)); err != nil {
				t.Errorf("%v write data: %v", proto, err)
			}
			if err := m.Commit(p, out, 0, 0); err != nil {
				t.Errorf("%v commit: %v", proto, err)
			}
			buf := make([]byte, 12000)
			if _, err := m.ReadData(p, out, 4000, buf); err != nil {
				t.Errorf("%v read data: %v", proto, err)
			}
		})
		cl.Run()
		if got, end := cl.cl.S.Events(), cl.Now(); got != want.events || end != want.end {
			t.Errorf("%v: events=%d end=%d, want events=%d end=%d", proto, got, end, want.events, want.end)
		}
		cl.Close()
	}
}
