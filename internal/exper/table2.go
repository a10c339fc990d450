package exper

import (
	"danas/internal/metrics"
	"danas/internal/nic"
	"danas/internal/sim"
	"danas/internal/vi"
)

// Table2Row is one baseline measurement.
type Table2Row struct {
	Protocol  string
	RTTMicros float64
	MBps      float64
}

// Table2 reproduces the paper's Table 2 — baseline network performance of
// GM, VI (poll and blocking) and UDP/Ethernet over the simulated Myrinet:
// one-byte round-trip time and large-message bandwidth. These are the
// calibration anchors (paper: GM 23us/244MB/s, VI poll 23/244, VI block
// 53/244, UDP 80us/166MB/s).
func Table2(scale Scale) []Table2Row {
	specs := []struct {
		protocol string
		rtt, bw  func() float64
	}{
		{"GM", gmRTT, func() float64 { return gmBW(scale) }},
		{"VI poll", func() float64 { return viRTT(nic.Poll) }, func() float64 { return viBW(scale) }},
		{"VI block", func() float64 { return viRTT(nic.Intr) }, func() float64 { return viBW(scale) }},
		{"UDP/Ethernet", udpRTT, func() float64 { return udpBW(scale) }},
	}
	g := RunGrid(len(specs), 2,
		func(i, j int) string {
			kind := "rtt"
			if j == 1 {
				kind = "bw"
			}
			return "table2/" + specs[i].protocol + "/" + kind
		},
		func(i, j int) float64 {
			if j == 0 {
				return specs[i].rtt()
			}
			return specs[i].bw()
		})
	rows := make([]Table2Row, len(specs))
	for i, s := range specs {
		rows[i] = Table2Row{Protocol: s.protocol, RTTMicros: g.At(i, 0), MBps: g.At(i, 1)}
	}
	return rows
}

// Table2AsTable renders rows for display.
func Table2AsTable(rows []Table2Row) *metrics.Table {
	t := metrics.NewTable("Table 2: baseline network performance",
		"row", "us | MB/s", "RTT(us)", "BW(MB/s)")
	for i, r := range rows {
		t.Set(float64(i+1), "RTT(us)", r.RTTMicros)
		t.Set(float64(i+1), "BW(MB/s)", r.MBps)
		_ = r.Protocol
	}
	return t
}

// gmRTT measures a one-byte ping-pong over raw GM messaging with polling,
// the gm_allsize-equivalent.
func gmRTT() float64 {
	cl := NewCluster(ClusterConfig{Clients: 1, ServerCacheBlockSize: 4096, ServerCacheBlocks: 16})
	defer cl.Close()
	a := cl.Nodes[0].NIC
	b := cl.Shards[0].NIC
	epA := a.NewEndpoint(77, nic.Poll)
	epB := b.NewEndpoint(77, nic.Poll)
	const rounds = 64
	var rtt sim.Duration
	cl.Go("echo", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			epB.Recv(p)
			b.Send(p, &nic.Message{To: a, Port: 77, HeaderBytes: 1})
		}
	})
	cl.Go("ping", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < rounds; i++ {
			a.Send(p, &nic.Message{To: b, Port: 77, HeaderBytes: 1})
			epA.Recv(p)
		}
		rtt = p.Now().Sub(start) / rounds
	})
	cl.Run()
	return rtt.Micros()
}

// gmBW measures streaming GM bandwidth with large messages.
func gmBW(scale Scale) float64 {
	cl := NewCluster(ClusterConfig{Clients: 1, ServerCacheBlockSize: 4096, ServerCacheBlocks: 16})
	defer cl.Close()
	a := cl.Nodes[0].NIC
	b := cl.Shards[0].NIC
	ep := b.NewEndpoint(78, nic.Poll)
	const msgBytes = 512 * 1024
	count := int(scale.bytes(64<<20) / msgBytes)
	if count < 4 {
		count = 4
	}
	var got int64
	var done sim.Time
	cl.Go("sink", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			m := ep.Recv(p)
			got += m.PayloadBytes
			done = p.Now()
		}
	})
	cl.Go("source", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			a.Send(p, &nic.Message{To: b, Port: 78, HeaderBytes: 16, PayloadBytes: msgBytes})
		}
	})
	cl.Run()
	return float64(got) / 1e6 / sim.Duration(done).Seconds()
}

// viRTT measures the VI ping-pong in the given completion mode.
func viRTT(mode nic.NotifyMode) float64 {
	cl := NewCluster(ClusterConfig{Clients: 1, ServerCacheBlockSize: 4096, ServerCacheBlocks: 16})
	defer cl.Close()
	qa, qb := vi.Connect(cl.Nodes[0].NIC, cl.Shards[0].NIC,
		cl.Nodes[0].NIC.AllocPort(), cl.Shards[0].NIC.AllocPort(), mode, mode)
	const rounds = 64
	var rtt sim.Duration
	cl.Go("echo", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			qb.Recv(p)
			qb.Send(p, &vi.Msg{HeaderBytes: 1})
		}
	})
	cl.Go("ping", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < rounds; i++ {
			qa.Send(p, &vi.Msg{HeaderBytes: 1})
			qa.Recv(p)
		}
		rtt = p.Now().Sub(start) / rounds
	})
	cl.Run()
	return rtt.Micros()
}

// viBW measures VI streaming bandwidth (polling).
func viBW(scale Scale) float64 {
	cl := NewCluster(ClusterConfig{Clients: 1, ServerCacheBlockSize: 4096, ServerCacheBlocks: 16})
	defer cl.Close()
	qa, qb := vi.Connect(cl.Nodes[0].NIC, cl.Shards[0].NIC,
		cl.Nodes[0].NIC.AllocPort(), cl.Shards[0].NIC.AllocPort(), nic.Poll, nic.Poll)
	const msgBytes = 512 * 1024
	count := int(scale.bytes(64<<20) / msgBytes)
	if count < 4 {
		count = 4
	}
	var got int64
	var done sim.Time
	cl.Go("sink", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			m := qb.Recv(p)
			got += m.PayloadBytes
			done = p.Now()
		}
	})
	cl.Go("source", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			qa.Send(p, &vi.Msg{HeaderBytes: 16, PayloadBytes: msgBytes})
		}
	})
	cl.Run()
	return float64(got) / 1e6 / sim.Duration(done).Seconds()
}

// udpRTT measures the one-byte UDP/Ethernet ping-pong (netperf-style).
func udpRTT() float64 {
	cl := NewCluster(ClusterConfig{Clients: 1, ServerCacheBlockSize: 4096, ServerCacheBlocks: 16})
	defer cl.Close()
	a := cl.Nodes[0].Stack.Socket(5001)
	b := cl.Shards[0].Stack.Socket(5001)
	const rounds = 64
	var rtt sim.Duration
	cl.Go("echo", func(p *sim.Proc) {
		for i := 0; i < rounds; i++ {
			d := b.Recv(p)
			b.SendTo(p, d.From, d.FromPort, 1, nil, 1, 0)
		}
	})
	cl.Go("ping", func(p *sim.Proc) {
		start := p.Now()
		for i := 0; i < rounds; i++ {
			a.SendTo(p, cl.Shards[0].Stack, 5001, 1, nil, 1, 0)
			a.Recv(p)
		}
		rtt = p.Now().Sub(start) / rounds
	})
	cl.Run()
	return rtt.Micros()
}

// udpBW measures UDP streaming receive throughput with MTU-sized
// datagrams, copies on both sides — the netperf UDP_STREAM equivalent.
func udpBW(scale Scale) float64 {
	cl := NewCluster(ClusterConfig{Clients: 1, ServerCacheBlockSize: 4096, ServerCacheBlocks: 16})
	defer cl.Close()
	a := cl.Nodes[0].Stack.Socket(5002)
	b := cl.Shards[0].Stack.Socket(5002)
	msg := int64(cl.P.EtherMTU - 46)
	count := int(scale.bytes(32<<20) / msg)
	if count < 16 {
		count = 16
	}
	var got int64
	var done sim.Time
	cl.Go("sink", func(p *sim.Proc) {
		h := cl.Shards[0].Host
		for i := 0; i < count; i++ {
			d := b.Recv(p)
			h.Copy(p, d.Bytes) // socket buffer -> application buffer
			got += d.Bytes
			done = p.Now()
		}
	})
	cl.Go("source", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			a.SendTo(p, cl.Shards[0].Stack, 5002, msg, nil, msg, 0)
		}
	})
	cl.Run()
	return float64(got) / 1e6 / sim.Duration(done).Seconds()
}
