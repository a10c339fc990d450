package netsim

import (
	"testing"

	"danas/internal/sim"
)

func testFabric(t *testing.T) (*sim.Scheduler, *Fabric, *Port, *Port) {
	t.Helper()
	s := sim.New()
	t.Cleanup(s.Close)
	fab := NewFabric(s, sim.Micros(0.5))
	cfg := LineConfig{Bandwidth: 250e6, Overhead: 100, PropDelay: sim.Micros(0.25)}
	a := fab.AddPort("a", cfg)
	b := fab.AddPort("b", cfg)
	return s, fab, a, b
}

func TestFrameDelivery(t *testing.T) {
	s, _, a, b := testFabric(t)
	var gotAt sim.Time
	var got *Frame
	b.Attach(SinkFunc(func(f *Frame) { got, gotAt = f, s.Now() }))
	a.Attach(SinkFunc(func(f *Frame) {}))
	f := &Frame{To: b, Bytes: 4096, Payload: "hello"}
	a.Send(f)
	s.Run()
	if got == nil || got.Payload != "hello" {
		t.Fatal("frame not delivered")
	}
	// tx (4196B @250MB/s = 16.784us) twice + 2*0.25us prop + 0.5us switch
	want := 2*sim.TransferTime(4196, 250e6) + sim.Micros(1.0)
	if gotAt != sim.Time(want) {
		t.Fatalf("delivered at %v, want %v", sim.Duration(gotAt), want)
	}
	if got.From != a {
		t.Fatal("frame From not stamped")
	}
}

func TestOneWayLatencyMatchesDelivery(t *testing.T) {
	s, _, a, b := testFabric(t)
	var gotAt sim.Time
	b.Attach(SinkFunc(func(f *Frame) { gotAt = s.Now() }))
	a.Send(&Frame{To: b, Bytes: 1})
	s.Run()
	if gotAt != sim.Time(a.OneWayLatency(1)) {
		t.Fatalf("delivery %v != OneWayLatency %v", sim.Duration(gotAt), a.OneWayLatency(1))
	}
}

func TestLinkSerialization(t *testing.T) {
	s, _, a, b := testFabric(t)
	var times []sim.Time
	b.Attach(SinkFunc(func(f *Frame) { times = append(times, s.Now()) }))
	for i := 0; i < 3; i++ {
		a.Send(&Frame{To: b, Bytes: 4096})
	}
	s.Run()
	if len(times) != 3 {
		t.Fatalf("delivered %d frames", len(times))
	}
	tx := sim.TransferTime(4196, 250e6)
	// Pipelined: successive frames arrive exactly one serialization apart.
	for i := 1; i < 3; i++ {
		gap := times[i].Sub(times[i-1])
		if gap != tx {
			t.Fatalf("inter-arrival %v, want %v", gap, tx)
		}
	}
}

func TestTwoSendersContendOnReceiverDownlink(t *testing.T) {
	s := sim.New()
	defer s.Close()
	fab := NewFabric(s, sim.Micros(0.5))
	cfg := LineConfig{Bandwidth: 250e6, Overhead: 0, PropDelay: 0}
	a := fab.AddPort("a", cfg)
	b := fab.AddPort("b", cfg)
	c := fab.AddPort("c", cfg)
	n := 0
	c.Attach(SinkFunc(func(f *Frame) { n++ }))
	const frames = 50
	for i := 0; i < frames; i++ {
		a.Send(&Frame{To: c, Bytes: 4096})
		b.Send(&Frame{To: c, Bytes: 4096})
	}
	s.Run()
	if n != 2*frames {
		t.Fatalf("delivered %d frames, want %d", n, 2*frames)
	}
	// 100 frames of 4KB through one 250MB/s downlink: >= 100*16.38us.
	min := sim.Duration(2*frames) * sim.TransferTime(4096, 250e6)
	if sim.Duration(s.Now()) < min {
		t.Fatalf("finished in %v, impossible under downlink contention (min %v)",
			sim.Duration(s.Now()), min)
	}
	if u := c.RxUtilization(); u < 0.95 {
		t.Fatalf("receiver downlink utilization %v, want ~1 under saturation", u)
	}
}

func TestFullDuplexIndependence(t *testing.T) {
	s, _, a, b := testFabric(t)
	var aGot, bGot sim.Time
	a.Attach(SinkFunc(func(f *Frame) { aGot = s.Now() }))
	b.Attach(SinkFunc(func(f *Frame) { bGot = s.Now() }))
	a.Send(&Frame{To: b, Bytes: 4096})
	b.Send(&Frame{To: a, Bytes: 4096})
	s.Run()
	if aGot != bGot {
		t.Fatalf("full duplex paths not symmetric: %v vs %v", aGot, bGot)
	}
}

func TestPortStats(t *testing.T) {
	s, _, a, b := testFabric(t)
	b.Attach(SinkFunc(func(f *Frame) {}))
	a.Send(&Frame{To: b, Bytes: 1000})
	a.Send(&Frame{To: b, Bytes: 2000})
	s.Run()
	_, out, _, bytesOut := a.Stats()
	in, _, bytesIn, _ := b.Stats()
	if out != 2 || in != 2 || bytesOut != 3000 || bytesIn != 3000 {
		t.Fatalf("stats out=%d/%d in=%d/%d", out, bytesOut, in, bytesIn)
	}
}

func TestSendWithoutDestinationPanics(t *testing.T) {
	_, _, a, _ := testFabric(t)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for nil destination")
		}
	}()
	a.Send(&Frame{Bytes: 1})
}

// TestDeliveryAllocatesOnePerFrame pins the cost of routing a frame: the
// one step function its first Send binds, beyond the caller's Frame, on
// both the same-leaf and the cross-leaf route.
func TestDeliveryAllocatesOnePerFrame(t *testing.T) {
	const runs = 100
	for _, c := range []struct {
		name   string
		fabric func(t *testing.T) (*sim.Scheduler, *Fabric, *Port, *Port)
	}{
		{"same-leaf", testFabric},
		{"cross-leaf", testLeafSpine},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, _, a, b := c.fabric(t)
			delivered := 0
			b.Attach(SinkFunc(func(f *Frame) { delivered++ }))
			frames := make([]Frame, runs+1)
			next := 0
			n := testing.AllocsPerRun(runs, func() {
				f := &frames[next]
				next++
				f.To, f.Bytes = b, 4096
				a.Send(f)
				s.Run()
			})
			if delivered != runs+1 {
				t.Fatalf("delivered %d frames, want %d", delivered, runs+1)
			}
			if n != 1 {
				t.Fatalf("%v allocations per delivered frame, want 1", n)
			}
		})
	}
}

func TestResendWhileInFlightPanics(t *testing.T) {
	s, _, a, b := testFabric(t)
	n := 0
	b.Attach(SinkFunc(func(f *Frame) { n++ }))
	f := &Frame{To: b, Bytes: 1}
	a.Send(f)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic for a frame sent again while in flight")
			}
		}()
		a.Send(f)
	}()
	s.Run()
	a.Send(f) // delivered frames may be sent again
	s.Run()
	if n != 2 {
		t.Fatalf("delivered %d times, want 2", n)
	}
}
