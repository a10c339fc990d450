// Package netsim models the cluster interconnect: full-duplex links from
// each host NIC to a central switch, with finite bandwidth, per-frame
// framing overhead, propagation delay, and a store-and-forward switch
// latency. It reproduces the paper's 2 Gb/s Myrinet fabric at the
// granularity the evaluation depends on: fragment serialization and link
// contention.
//
// netsim carries opaque frames; fragmentation, DMA and protocol processing
// belong to the NIC model layered above (internal/nic).
package netsim

import (
	"fmt"

	"danas/internal/sim"
)

// Frame is one wire fragment. Bytes counts upper-layer bytes (headers +
// payload data); the link adds LineConfig.Overhead for preamble, CRC and
// routing.
//
// A frame carries its own route state: the hop it reached and one step
// function, bound on its first Send, that every station and timer on the
// route calls back. A frame may be sent again once it has been delivered
// or dropped, but not while it is in flight.
type Frame struct {
	From, To *Port
	Bytes    int
	Payload  any // opaque upper-layer context, delivered to the sink

	hop  hop
	step func() // f.advance
}

// hop is the point of the route a frame's next step starts from.
type hop uint8

const (
	hopIdle     hop = iota // not in flight
	hopUplink              // serialized on the source uplink
	hopSrcLeaf             // through the source leaf's store-and-forward
	hopUpTrunk             // serialized on the up-trunk to the spine
	hopSpine               // through the spine hop
	hopDnTrunk             // serialized on the spine's down-trunk
	hopDstLeaf             // through the destination leaf's store-and-forward
	hopDownlink            // serialized on the destination downlink
	hopArrive              // propagated to the destination port
)

// Sink receives frames arriving at a port.
type Sink interface {
	DeliverFrame(f *Frame)
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(f *Frame)

// DeliverFrame calls fn(f).
func (fn SinkFunc) DeliverFrame(f *Frame) { fn(f) }

// LineConfig describes one link's physical characteristics.
type LineConfig struct {
	Bandwidth float64      // bytes/second on the wire
	Overhead  int          // framing bytes added per frame
	PropDelay sim.Duration // one-way propagation to/from the switch
}

// Fabric is the interconnect: one or more leaf switches with attached
// host links, and — in multi-leaf topologies — spine switches joined by
// oversubscribed trunk bundles (see Topology in topology.go).
type Fabric struct {
	s         *sim.Scheduler
	topo      Topology
	ports     []*Port
	leaves    []*leaf
	spineDown []bool
	dropped   uint64
}

// NewFabric creates an empty single-switch fabric with the given
// store-and-forward switch latency: the degenerate one-leaf topology.
func NewFabric(s *sim.Scheduler, switchLatency sim.Duration) *Fabric {
	return NewFabricWith(s, Star(switchLatency))
}

// Port is a host's attachment point: one transmit line toward the switch
// and one receive line from the switch.
type Port struct {
	name string
	fab  *Fabric
	cfg  LineConfig
	leaf int
	up   *sim.Station // host -> switch direction
	down *sim.Station // switch -> host direction
	sink Sink

	framesIn, framesOut uint64
	bytesIn, bytesOut   int64
}

// AddPort attaches a new port to the fabric's first leaf (the only one
// in the degenerate star).
func (f *Fabric) AddPort(name string, cfg LineConfig) *Port {
	return f.AddLeafPort(name, cfg, 0)
}

// Leaf returns the index of the leaf switch the port attaches to.
func (p *Port) Leaf() int { return p.leaf }

// Ports returns all attached ports.
func (f *Fabric) Ports() []*Port { return f.ports }

// Name returns the port name.
func (p *Port) Name() string { return p.name }

// Attach sets the frame sink (normally the NIC receive path).
func (p *Port) Attach(sink Sink) { p.sink = sink }

// Config returns the port's line configuration.
func (p *Port) Config() LineConfig { return p.cfg }

// SetBandwidth changes the port's line rate (failure injection: link
// degradation). Frames already queued keep the serialization time they
// were enqueued with; frames sent afterwards serialize at the new rate,
// in both directions (the rate applies to this port's uplink and to
// downlink serialization toward it).
func (p *Port) SetBandwidth(bytesPerSec float64) { p.cfg.Bandwidth = bytesPerSec }

// txTime returns the serialization time of a frame on this line.
func (p *Port) txTime(bytes int) sim.Duration {
	return sim.TransferTime(int64(bytes+p.cfg.Overhead), p.cfg.Bandwidth)
}

// Send transmits f from p toward f.To and stamps f.From with p. The frame
// serializes on p's uplink, crosses the switch fabric (one leaf on the
// same-leaf path, leaf -> spine -> leaf otherwise), serializes on the
// destination downlink, and is finally handed to the destination sink.
// Panics if f.To is nil, if f is still in flight, or if the destination
// has no sink — checked here, at submission, so a miswired fabric fails
// with both port names instead of deep inside a delivery callback
// (Fabric.Arm catches this even earlier).
func (p *Port) Send(f *Frame) {
	if f.To == nil {
		panic(fmt.Sprintf("netsim: frame from %s has no destination", p.name))
	}
	if f.hop != hopIdle {
		panic(fmt.Sprintf("netsim: frame from %s sent again while in flight", p.name))
	}
	dst := f.To
	if dst.sink == nil {
		panic(fmt.Sprintf("netsim: port %s has no sink (frame from %s; fabric not armed?)",
			dst.name, p.name))
	}
	f.From = p
	if f.step == nil {
		f.step = f.advance
	}
	p.framesOut++
	p.bytesOut += int64(f.Bytes)
	f.hop = hopUplink
	p.up.Serve(p.txTime(f.Bytes), f.step)
}

// advance moves f one hop along its route: each case makes the one
// station or timer call that schedules the next hop, with f.step as its
// continuation. A down switch on the path black-holes the frame at the
// hop that reaches it.
func (f *Frame) advance() {
	src, dst := f.From, f.To
	fab := src.fab
	switch f.hop {
	case hopUplink:
		f.hop = hopSrcLeaf
		fab.s.After(src.cfg.PropDelay+fab.topo.LeafLatency, f.step)
	case hopSrcLeaf:
		lf := fab.leaves[src.leaf]
		if lf.down {
			fab.drop(f)
			return
		}
		if src.leaf == dst.leaf {
			f.hop = hopDownlink
			dst.down.Serve(dst.txTime(f.Bytes), f.step)
			return
		}
		f.hop = hopUpTrunk
		fab.trunkServe(lf, lf.up[fab.SpineFor(src.leaf, dst.leaf)], f)
	case hopUpTrunk:
		f.hop = hopSpine
		fab.s.After(fab.topo.TrunkProp+fab.topo.SpineLatency, f.step)
	case hopSpine:
		sp := fab.SpineFor(src.leaf, dst.leaf)
		if fab.spineDown[sp] {
			fab.drop(f)
			return
		}
		f.hop = hopDnTrunk
		dl := fab.leaves[dst.leaf]
		fab.trunkServe(dl, dl.dn[sp], f)
	case hopDnTrunk:
		f.hop = hopDstLeaf
		fab.s.After(fab.topo.TrunkProp+fab.topo.LeafLatency, f.step)
	case hopDstLeaf:
		if fab.leaves[dst.leaf].down {
			fab.drop(f)
			return
		}
		f.hop = hopDownlink
		dst.down.Serve(dst.txTime(f.Bytes), f.step)
	case hopDownlink:
		f.hop = hopArrive
		fab.s.After(dst.cfg.PropDelay, f.step)
	case hopArrive:
		f.hop = hopIdle
		dst.framesIn++
		dst.bytesIn += int64(f.Bytes)
		dst.sink.DeliverFrame(f)
	}
}

// OneWayLatency returns the zero-load latency of a frame of the given size
// between two same-leaf ports with this port's line configuration on both
// ends. For cross-leaf paths see Fabric.PathLatency.
func (p *Port) OneWayLatency(bytes int) sim.Duration {
	return 2*p.txTime(bytes) + 2*p.cfg.PropDelay + p.fab.topo.LeafLatency
}

// TxUtilization returns the uplink utilization since its last epoch mark.
func (p *Port) TxUtilization() float64 { return p.up.Utilization() }

// RxUtilization returns the downlink utilization since its last epoch mark.
func (p *Port) RxUtilization() float64 { return p.down.Utilization() }

// MarkEpoch restarts utilization accounting on both directions.
func (p *Port) MarkEpoch() {
	p.up.MarkEpoch()
	p.down.MarkEpoch()
}

// Stats returns cumulative frame and byte counts (in, out).
func (p *Port) Stats() (framesIn, framesOut uint64, bytesIn, bytesOut int64) {
	return p.framesIn, p.framesOut, p.bytesIn, p.bytesOut
}
