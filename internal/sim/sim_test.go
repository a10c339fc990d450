package sim

import (
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestClockStartsAtZero(t *testing.T) {
	s := New()
	defer s.Close()
	if s.Now() != 0 {
		t.Fatalf("new scheduler clock = %d, want 0", s.Now())
	}
}

func TestAfterOrdering(t *testing.T) {
	s := New()
	defer s.Close()
	var order []int
	s.After(30*Microsecond, func() { order = append(order, 3) })
	s.After(10*Microsecond, func() { order = append(order, 1) })
	s.After(20*Microsecond, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("events ran in order %v, want [1 2 3]", order)
	}
	if s.Now() != Time(30*Microsecond) {
		t.Fatalf("final clock = %v, want 30us", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New()
	defer s.Close()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.After(5*Microsecond, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-timestamp events not FIFO: %v", order)
		}
	}
}

func TestPostInPastPanics(t *testing.T) {
	s := New()
	defer s.Close()
	s.After(10*Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("posting in the past did not panic")
			}
		}()
		s.At(5*Time(Microsecond), func() {})
	})
	s.Run()
}

func TestProcSleep(t *testing.T) {
	s := New()
	defer s.Close()
	var woke Time
	s.Go("sleeper", func(p *Proc) {
		p.Sleep(42 * Microsecond)
		woke = p.Now()
	})
	s.Run()
	if woke != Time(42*Microsecond) {
		t.Fatalf("proc woke at %v, want 42us", woke)
	}
}

func TestProcInterleaving(t *testing.T) {
	s := New()
	defer s.Close()
	var trace []string
	s.Go("a", func(p *Proc) {
		trace = append(trace, "a0")
		p.Sleep(10 * Microsecond)
		trace = append(trace, "a1")
		p.Sleep(20 * Microsecond)
		trace = append(trace, "a2")
	})
	s.Go("b", func(p *Proc) {
		trace = append(trace, "b0")
		p.Sleep(15 * Microsecond)
		trace = append(trace, "b1")
	})
	s.Run()
	want := []string{"a0", "b0", "a1", "b1", "a2"}
	if len(trace) != len(want) {
		t.Fatalf("trace %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace %v, want %v", trace, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	defer s.Close()
	fired := 0
	s.After(10*Microsecond, func() { fired++ })
	s.After(30*Microsecond, func() { fired++ })
	s.RunUntil(Time(20 * Microsecond))
	if fired != 1 {
		t.Fatalf("fired = %d after RunUntil(20us), want 1", fired)
	}
	if s.Now() != Time(20*Microsecond) {
		t.Fatalf("clock = %v, want 20us", s.Now())
	}
	s.Run()
	if fired != 2 {
		t.Fatalf("fired = %d after Run, want 2", fired)
	}
}

func TestCloseReapsBlockedProcs(t *testing.T) {
	s := New()
	q := NewQueue[int](s, "never")
	started := false
	s.Go("stuck", func(p *Proc) {
		started = true
		q.Get(p) // never satisfied
		t.Error("blocked proc resumed unexpectedly")
	})
	s.Run()
	if !started {
		t.Fatal("proc never started")
	}
	s.Close()
	s.Close() // idempotent
}

// TestCloseUnwindsParkedProcs parks a process at each kind of blocking
// point and checks that Close unwinds every one synchronously: deferred
// functions have run and the coroutines are gone when Close returns.
func TestCloseUnwindsParkedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	q := NewQueue[int](s, "q")
	r := NewResource(s, "r", 1)
	g := NewSignal(s)
	s.Go("holder", func(p *Proc) { r.Acquire(p, 1) }) // exits holding r
	blocks := map[string]func(p *Proc){
		"sleep":   func(p *Proc) { p.Sleep(Second) },
		"get":     func(p *Proc) { q.Get(p) },
		"acquire": func(p *Proc) { r.Acquire(p, 1) },
		"wait":    g.Wait,
	}
	unwound := map[string]bool{}
	for name, block := range blocks {
		s.Go(name, func(p *Proc) {
			defer func() { unwound[name] = true }()
			block(p)
			t.Errorf("%s: resumed after Close", name)
		})
	}
	s.RunUntil(Time(Millisecond))
	if n := runtime.NumGoroutine(); n < base+len(blocks) {
		t.Fatalf("%d goroutines with %d procs parked, want at least %d", n, len(blocks), base+len(blocks))
	}
	if len(unwound) != 0 {
		t.Fatalf("procs unwound before Close: %v", unwound)
	}
	s.Close()
	for name := range blocks {
		if !unwound[name] {
			t.Errorf("%s: deferred function did not run by the time Close returned", name)
		}
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("%d goroutines after Close, want the %d from before the scheduler", n, base)
	}
	s.Close() // a second Close is a no-op
}

// TestProcPanicSurfacesFromRun checks that a panicking process stops the
// run with a panic, naming the process, that the Run caller can recover.
func TestProcPanicSurfacesFromRun(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New()
	s.Go("idle", func(p *Proc) { p.Sleep(Second) })
	s.Go("idle", func(p *Proc) { p.Sleep(Second) })
	w := s.Go("worker", func(p *Proc) {
		p.Sleep(Microsecond)
		panic("disk on fire")
	})
	if w.Name() != "worker#3" {
		t.Fatalf("Name() = %q, want worker#3", w.Name())
	}
	got := func() (r any) {
		defer func() { r = recover() }()
		s.Run()
		return nil
	}()
	if want := "sim: proc worker#3 panicked: disk on fire"; got != want {
		t.Errorf("Run panicked with %v, want %q", got, want)
	}
	if s.Now() != Time(Microsecond) {
		t.Errorf("clock = %v after the panic, want 1us", s.Now())
	}
	s.Close()
	if n := runtime.NumGoroutine(); n != base {
		t.Errorf("%d goroutines after Close, want %d", n, base)
	}
}

// TestEventOrderProperty drives random interleavings of At, After,
// AfterCancel, cancellation and RunUntil against a reference model: the
// events that run are the uncancelled ones, in a stable sort by time of
// their post order; cancelled events neither advance the clock nor count
// in Events; and RunUntil leaves later events queued.
func TestEventOrderProperty(t *testing.T) {
	type posted struct {
		at              Time
		id              int
		cancelled, done bool
	}
	f := func(prog []uint16) bool {
		s := New()
		defer s.Close()
		var all []*posted // in post order
		var cancels []*Timer
		var cancelOf []*posted
		var got, want []int
		post := func(at Time) (*posted, func()) {
			e := &posted{at: at, id: len(all)}
			all = append(all, e)
			return e, func() { got = append(got, e.id) }
		}
		// settle appends to want the events the reference runs up to
		// limit (everything when limit < 0) and returns the last one's
		// time, or -1 when none runs.
		settle := func(limit Time) Time {
			var due []*posted
			for _, e := range all {
				if !e.done && !e.cancelled && (limit < 0 || e.at <= limit) {
					due = append(due, e)
				}
			}
			sort.SliceStable(due, func(i, j int) bool { return due[i].at < due[j].at })
			last := Time(-1)
			for _, e := range due {
				e.done = true
				want = append(want, e.id)
				last = e.at
			}
			return last
		}
		for _, op := range prog {
			d := Duration(op/8) % 8
			switch op % 8 {
			case 0, 1:
				_, fn := post(s.Now().Add(d))
				s.At(s.Now().Add(d), fn)
			case 2, 3:
				_, fn := post(s.Now().Add(d))
				s.After(d, fn)
			case 4, 5:
				e, fn := post(s.Now().Add(d))
				cancels = append(cancels, s.AfterCancel(d, fn))
				cancelOf = append(cancelOf, e)
			case 6:
				if len(cancels) > 0 {
					i := int(op/64) % len(cancels)
					cancels[i].Cancel()
					if !cancelOf[i].done {
						cancelOf[i].cancelled = true
					}
				}
			case 7:
				limit := s.Now().Add(d)
				settle(limit)
				s.RunUntil(limit)
				if s.Now() != limit {
					t.Logf("RunUntil(%d) left the clock at %d", limit, s.Now())
					return false
				}
			}
		}
		end := s.Now()
		if last := settle(-1); last > end {
			end = last
		}
		s.Run()
		if !slices.Equal(got, want) {
			t.Logf("ran %v, want %v", got, want)
			return false
		}
		if s.Now() != end || s.Events() != uint64(len(want)) {
			t.Logf("clock %d events %d, want clock %d events %d", s.Now(), s.Events(), end, len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New()
		defer s.Close()
		var ts []Time
		r := NewResource(s, "cpu", 1)
		for i := 0; i < 5; i++ {
			s.Go("w", func(p *Proc) {
				r.Use(p, 7*Microsecond)
				ts = append(ts, p.Now())
			})
		}
		s.Run()
		return ts
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged: %v vs %v", a, b)
		}
	}
}

func TestTransferTime(t *testing.T) {
	if d := TransferTime(250e6, 250e6); d != Second {
		t.Fatalf("250MB at 250MB/s = %v, want 1s", d)
	}
	if d := TransferTime(0, 250e6); d != 0 {
		t.Fatalf("0 bytes took %v, want 0", d)
	}
	if d := TransferTime(4096, 0); d != 0 {
		t.Fatalf("infinite rate took %v, want 0", d)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{23 * Microsecond, "23.000us"},
		{9 * Millisecond, "9.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTransferTimeMonotonic(t *testing.T) {
	f := func(a, b uint32) bool {
		x, y := int64(a%1<<20), int64(b%1<<20)
		if x > y {
			x, y = y, x
		}
		return TransferTime(x, 250e6) <= TransferTime(y, 250e6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEventSize pins the heap's element size: the relay kind rides in
// event.seq rather than in a field of its own.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n != 40 {
		t.Fatalf("event is %d bytes, want 40", n)
	}
}

// TestStationWaitRelayShape checks that Station.Wait takes the same events,
// in the same same-instant order, as serving a job whose completion fires
// a Signal the process waits on.
func TestStationWaitRelayShape(t *testing.T) {
	run := func(wait func(st *Station, p *Proc, d Duration)) ([]string, uint64) {
		s := New()
		defer s.Close()
		st := NewStation(s, "cpu")
		var log []string
		mark := func(what string) func() {
			return func() { log = append(log, what+"@"+Duration(s.Now()).String()) }
		}
		s.After(5*Microsecond, mark("before"))
		for _, name := range []string{"a", "b"} {
			s.Go(name, func(p *Proc) {
				wait(st, p, 5*Microsecond)
				mark(name)()
				s.After(0, mark(name+"-next"))
				wait(st, p, 0)
				mark(name + "-again")()
			})
		}
		s.Go("sleeper", func(p *Proc) {
			p.Sleep(5 * Microsecond)
			mark("sleeper")()
		})
		s.After(5*Microsecond, mark("after"))
		s.Run()
		return log, s.Events()
	}
	got, gotEvents := run(func(st *Station, p *Proc, d Duration) { st.Wait(p, d) })
	want, wantEvents := run(func(st *Station, p *Proc, d Duration) {
		sig := NewSignal(st.s)
		st.Serve(d, sig.Fire)
		sig.Wait(p)
	})
	if !slices.Equal(got, want) || gotEvents != wantEvents {
		t.Fatalf("Wait ran %v in %d events, Serve+Signal ran %v in %d", got, gotEvents, want, wantEvents)
	}
}

// TestSteadyStateAllocatesNothing pins the kernel's blocking primitives at
// zero allocations once their backing arrays have grown to the working
// depth: a Station.Wait, a single-waiter Signal Wait/Fire, a Queue
// Put/Get and a contended Resource Acquire/Release.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	const runs = 100
	cases := []struct {
		name  string
		setup func(s *Scheduler) (step func())
	}{
		{"Station.Wait", func(s *Scheduler) func() {
			st := NewStation(s, "cpu")
			s.Go("w", func(p *Proc) {
				for {
					st.Wait(p, Microsecond)
				}
			})
			return func() { s.RunUntil(s.Now().Add(Microsecond)) }
		}},
		{"Signal", func(s *Scheduler) func() {
			sigs := make([]Signal, runs+2)
			for i := range sigs {
				sigs[i].s = s
			}
			s.Go("w", func(p *Proc) {
				for i := range sigs {
					sigs[i].Wait(p)
				}
			})
			next := 0
			return func() {
				sigs[next].Fire()
				next++
				s.Run()
			}
		}},
		{"Queue", func(s *Scheduler) func() {
			q := NewQueue[int](s, "q")
			for range 2 {
				s.Go("rx", func(p *Proc) {
					for {
						q.Get(p)
					}
				})
			}
			return func() {
				for i := range 3 {
					q.Put(i)
				}
				s.Run()
			}
		}},
		{"Resource", func(s *Scheduler) func() {
			r := NewResource(s, "cpu", 1)
			for range 3 {
				s.Go("user", func(p *Proc) {
					for {
						r.Use(p, Microsecond)
					}
				})
			}
			return func() { s.RunUntil(s.Now().Add(Microsecond)) }
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New()
			defer s.Close()
			step := c.setup(s)
			s.RunUntil(0)
			if n := testing.AllocsPerRun(runs, step); n != 0 {
				t.Fatalf("%v allocations per step, want 0", n)
			}
		})
	}
}
