// Package sim provides a deterministic discrete-event simulation kernel.
//
// A Scheduler owns a virtual clock and a 4-ary min-heap of value events
// ordered by (time, post order): events with equal timestamps fire in the
// order they were posted, so a run is a pure function of its inputs and
// seeds. An event is one of three kinds:
//
//   - fn: it calls a function (After, At, AfterCancel, Station.Serve).
//   - resume: it resumes a logical process (Go, Sleep, and every wake by
//     a Resource, Queue or Signal).
//   - relay: it marks the end of a process's Station.Wait job and readies
//     that process, exactly as firing a Signal would: the process resumes
//     in a second event at the same instant, behind the events already
//     queued for it. The relay costs no function value and no Signal.
//
// A process (Proc) runs on an iter.Pull coroutine, which is reused for a
// later process once its body returns. The event loop resumes a process
// with a direct coroutine switch, and the process switches straight back
// whenever it blocks (Sleep, Resource.Acquire, Queue.Get, ...), so exactly
// one process runs at any instant and a wake costs no scheduler round
// trip. A process that panics stops the run: the panic, naming the
// process, propagates out of Run. Close unwinds every parked process before
// it returns.
//
// The kernel knows nothing about networks or storage; those live in the
// packages layered above (netsim, host, nic, ...).
package sim

import (
	"fmt"
	"iter"
	"strconv"
)

// Time is an absolute simulated time in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulated time in nanoseconds.
type Duration int64

// Convenient duration units.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000 * Nanosecond
	Millisecond Duration = 1000 * Microsecond
	Second      Duration = 1000 * Millisecond
)

// Micros returns a Duration of us microseconds. Fractional microseconds are
// preserved to nanosecond resolution.
func Micros(us float64) Duration { return Duration(us * 1e3) }

// Millis returns a Duration of ms milliseconds.
func Millis(ms float64) Duration { return Duration(ms * 1e6) }

// Seconds converts d to floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

// Micros converts d to floating-point microseconds.
func (d Duration) Micros() float64 { return float64(d) / 1e3 }

func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/1e6)
	case d >= Microsecond:
		return fmt.Sprintf("%.3fus", d.Micros())
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Seconds converts t to floating-point seconds since simulation start.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns t shifted by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// TransferTime returns the time to move n bytes at rate bytesPerSec.
// A zero or negative rate means "infinitely fast".
func TransferTime(n int64, bytesPerSec float64) Duration {
	if bytesPerSec <= 0 || n <= 0 {
		return 0
	}
	return Duration(float64(n) * 1e9 / bytesPerSec)
}

// event is one scheduled action: it resumes p when p is set and calls fn
// otherwise, unless seq carries the relay bit, in which case it readies p.
// A cancelled event stays in the heap (removal would disturb sibling
// ordering) but is skipped by the loop without advancing the clock; tm,
// set only for AfterCancel events, says whether it was cancelled.
type event struct {
	at  Time
	seq uint64 // post order << 1 | relay bit
	fn  func()
	p   *Proc
	tm  *Timer
}

// relay is the seq bit of a relay event. Post order lives in the bits
// above it, so the bit never decides the heap order.
const relay = 1

// before is the heap order: earlier time first, then earlier post.
func (e *event) before(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// Scheduler owns the virtual clock, the event queue and all processes.
// The zero value is not usable; call New.
type Scheduler struct {
	now     Time
	events  []event // 4-ary min-heap under event.before
	seq     uint64
	live    []*coroutine // every coroutine not yet exited, by coroutine.slot
	idle    []*coroutine // live coroutines with no process to run
	closed  bool
	inLoop  bool
	procSeq int
	nEvents uint64 // total events executed, for diagnostics
}

// New returns an empty scheduler with the clock at zero.
func New() *Scheduler { return &Scheduler{} }

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Events returns the number of events executed so far.
func (s *Scheduler) Events() uint64 { return s.nEvents }

// push stamps e with the next post sequence number, keeping its relay
// bit, and sifts it into the heap. Panics if e is in the past.
func (s *Scheduler) push(e event) {
	if e.at < s.now {
		panic(fmt.Sprintf("sim: event posted in the past (at=%d now=%d)", e.at, s.now))
	}
	s.seq++
	e.seq |= s.seq << 1
	h := append(s.events, e)
	i := len(h) - 1
	for i > 0 {
		up := (i - 1) / 4
		if !e.before(&h[up]) {
			break
		}
		h[i] = h[up]
		i = up
	}
	h[i] = e
	s.events = h
}

// pop removes and returns the earliest event.
func (s *Scheduler) pop() event {
	h := s.events
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j := c + 1; j < c+4 && j < n; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&last) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	s.events = h
	return top
}

// post schedules fn at absolute time at. Panics if at is in the past.
func (s *Scheduler) post(at Time, fn func()) { s.push(event{at: at, fn: fn}) }

// ready schedules p to resume at the current instant, after the events
// already queued for it.
func (s *Scheduler) ready(p *Proc) { s.push(event{at: s.now, p: p}) }

// After schedules fn to run d from now. Negative d is clamped to zero.
func (s *Scheduler) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	s.post(s.now.Add(d), fn)
}

// At schedules fn at the absolute time at.
func (s *Scheduler) At(at Time, fn func()) { s.post(at, fn) }

// Timer is the handle of an AfterCancel event.
type Timer struct{ dead bool }

// Cancel suppresses the timer's event if it has not fired yet; cancelling
// a cancelled or already-fired timer is a no-op.
func (t *Timer) Cancel() { t.dead = true }

// AfterCancel schedules fn to run d from now, like After, and returns a
// handle that can cancel it. The timer slot stays queued either way, so
// cancellation never perturbs the ordering of unrelated same-instant
// events.
func (s *Scheduler) AfterCancel(d Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	t := &Timer{}
	s.push(event{at: s.now.Add(d), fn: fn, tm: t})
	return t
}

// Run executes events until the queue is empty. Processes blocked on
// resources or queues that will never be signalled are left blocked; call
// Close to reap them.
func (s *Scheduler) Run() {
	s.runUntil(-1)
}

// RunUntil executes events with timestamps <= t and then sets the clock
// to t. Remaining events stay queued.
func (s *Scheduler) RunUntil(t Time) {
	s.runUntil(t)
	if s.now < t {
		s.now = t
	}
}

func (s *Scheduler) runUntil(limit Time) {
	if s.closed {
		panic("sim: Run after Close")
	}
	if s.inLoop {
		panic("sim: re-entrant Run (called from inside the simulation)")
	}
	s.inLoop = true
	defer func() { s.inLoop = false }()
	for len(s.events) > 0 {
		if limit >= 0 && s.events[0].at > limit {
			return
		}
		e := s.pop()
		if e.tm != nil && e.tm.dead {
			continue
		}
		s.now = e.at
		s.nEvents++
		switch {
		case e.seq&relay != 0:
			s.ready(e.p)
		case e.p != nil:
			e.p.resume()
		default:
			e.fn()
		}
	}
}

// Close unwinds every parked process, running its deferred functions, and
// returns once all of the scheduler's coroutines have exited. The
// scheduler must not be used afterwards. It is safe to call Close more
// than once.
func (s *Scheduler) Close() {
	if s.closed {
		return
	}
	if s.inLoop {
		panic("sim: Close called from inside the simulation")
	}
	s.closed = true
	for len(s.live) > 0 {
		c := s.live[len(s.live)-1]
		s.retire(c)
		c.stop()
	}
	s.idle = nil
	s.events = nil
}

// retire drops c from the live set; it is a no-op once c has left it.
func (s *Scheduler) retire(c *coroutine) {
	if c.slot < 0 {
		return
	}
	last := s.live[len(s.live)-1]
	s.live[c.slot] = last
	last.slot = c.slot
	s.live[len(s.live)-1] = nil
	s.live = s.live[:len(s.live)-1]
	c.slot = -1
}

// killed is the panic value that unwinds a parked Proc at Close time.
type killed struct{}

// A coroutine runs process bodies back to back: when one returns, the
// coroutine parks idle until the scheduler hands it the next process to
// start. A run thus creates as many coroutines as it has processes alive
// at once, not one per process.
type coroutine struct {
	s     *Scheduler
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the process being run; nil while idle
	slot  int   // index in s.live, -1 once exited
}

// loop is the coroutine body. It ends when Close stops the coroutine or a
// process body panics.
func (c *coroutine) loop(yield func(struct{}) bool) {
	c.yield = yield
	defer c.s.retire(c)
	for c.runProc() {
		c.s.idle = append(c.s.idle, c)
		if !yield(struct{}{}) {
			return
		}
	}
}

// runProc runs c.p's body to completion and reports whether c may run
// another: false when Close unwound it. A panic other than the unwind is
// re-raised, naming the process, into the event loop that resumed it.
func (c *coroutine) runProc() (reusable bool) {
	p := c.p
	defer func() {
		p.dead = true
		p.co, c.p = nil, nil
		if r := recover(); r != nil {
			if _, ok := r.(killed); ok {
				return // reaped by Scheduler.Close
			}
			panic(fmt.Sprintf("sim: proc %s panicked: %v", p.Name(), r))
		}
	}()
	fn := p.body
	p.body = nil
	fn(p)
	return true
}

// Proc is a logical process: it runs on a coroutine only when the event
// loop resumes it and always switches back before simulated time advances.
type Proc struct {
	s    *Scheduler
	name string
	id   int
	body func(p *Proc) // until the first resume starts it
	co   *coroutine    // while started and not exited
	dead bool
	note any
}

// Go spawns a new process whose body starts executing at the current
// simulated time (after already-queued events at this time).
func (s *Scheduler) Go(name string, fn func(p *Proc)) *Proc {
	s.procSeq++
	p := &Proc{s: s, name: name, id: s.procSeq, body: fn}
	s.ready(p)
	return p
}

// resume runs p until it next blocks or exits, starting it on an idle or
// new coroutine on the first call. It must only be called from the event
// loop.
func (p *Proc) resume() {
	if p.dead {
		return
	}
	if p.co == nil {
		s := p.s
		if n := len(s.idle); n > 0 {
			p.co = s.idle[n-1]
			s.idle[n-1] = nil
			s.idle = s.idle[:n-1]
		} else {
			p.co = &coroutine{s: s, slot: len(s.live)}
			s.live = append(s.live, p.co)
			p.co.next, p.co.stop = iter.Pull(p.co.loop)
		}
		p.co.p = p
	}
	p.co.next()
}

// block parks p until an event resumes it.
func (p *Proc) block() {
	if !p.co.yield(struct{}{}) {
		//lint:ignore panicfree killed{} is the coroutine-unwind token runProc recovers by type; a string would be caught by nothing
		panic(killed{})
	}
}

// Name returns the process name (unique within its scheduler).
func (p *Proc) Name() string { return p.name + "#" + strconv.Itoa(p.id) }

// SetAnnotation attaches an opaque per-process value; Annotation reads
// it back (nil when unset). The kernel never inspects the value — layers
// above use it to carry request context (e.g. an observability span)
// across the blocking points of one logical process.
func (p *Proc) SetAnnotation(v any) { p.note = v }

// Annotation returns the value set by SetAnnotation, or nil.
func (p *Proc) Annotation() any { return p.note }

// Sched returns the owning scheduler.
func (p *Proc) Sched() *Scheduler { return p.s }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.s.now }

// Sleep suspends the process for d. Negative d is treated as zero but still
// yields, preserving event ordering fairness.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.s.push(event{at: p.s.now.Add(d), p: p})
	p.block()
}

// Yield lets other events scheduled at the current instant run first.
func (p *Proc) Yield() { p.Sleep(0) }
