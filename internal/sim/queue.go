package sim

// fifo is a slice-backed FIFO that keeps its backing array: popping
// advances a head index, and a push that would grow the array first
// slides the live items down once the consumed head is at least half of
// it. A steady producer/consumer pair therefore stops allocating once the
// array fits its peak depth.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, v)
}

// peek returns the oldest item; the fifo must not be empty.
func (f *fifo[T]) peek() T { return f.buf[f.head] }

// pop removes and returns the oldest item; the fifo must not be empty.
func (f *fifo[T]) pop() T {
	v := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return v
}

// Queue is an unbounded FIFO of values with blocking receive, the
// simulation analogue of a Go channel: message rings, request queues,
// completion queues. Senders never block; receivers block until a value
// arrives. Multiple receivers are served in the order they blocked.
type Queue[T any] struct {
	s       *Scheduler
	name    string
	items   fifo[T]
	waiters fifo[*Proc]
	puts    uint64
}

// NewQueue creates an empty queue.
func NewQueue[T any](s *Scheduler, name string) *Queue[T] {
	return &Queue[T]{s: s, name: name}
}

// Len returns the number of queued values.
func (q *Queue[T]) Len() int { return q.items.len() }

// Puts returns the total number of values ever enqueued.
func (q *Queue[T]) Puts() uint64 { return q.puts }

// Put enqueues v and, if a receiver is blocked, schedules it to run at the
// current instant. Put may be called from a process or from a plain event
// callback.
func (q *Queue[T]) Put(v T) {
	q.items.push(v)
	q.puts++
	if q.waiters.len() > 0 {
		q.s.ready(q.waiters.pop())
	}
}

// Get dequeues the next value, blocking p until one is available.
func (q *Queue[T]) Get(p *Proc) T {
	for q.items.len() == 0 {
		q.waiters.push(p)
		p.block()
	}
	v := q.items.pop()
	// If more items remain and more receivers are parked, pass the baton so
	// a burst of Puts wakes every eligible receiver.
	if q.items.len() > 0 && q.waiters.len() > 0 {
		q.s.ready(q.waiters.pop())
	}
	return v
}

// TryGet dequeues without blocking. ok is false if the queue is empty.
func (q *Queue[T]) TryGet() (v T, ok bool) {
	if q.items.len() == 0 {
		return v, false
	}
	return q.items.pop(), true
}

// Signal is a one-shot completion: one or more processes wait, one event
// fires, all waiters resume. Used for I/O completions and futures. The
// first waiter is kept inline, so a single-waiter Wait/Fire allocates
// nothing.
type Signal struct {
	s     *Scheduler
	fired bool
	first *Proc
	more  []*Proc
}

// NewSignal creates an unfired signal.
func NewSignal(s *Scheduler) *Signal { return &Signal{s: s} }

// Fired reports whether the signal has fired.
func (g *Signal) Fired() bool { return g.fired }

// Fire releases all current and future waiters, in the order they
// waited. Firing twice is a no-op.
func (g *Signal) Fire() {
	if g.fired {
		return
	}
	g.fired = true
	if g.first != nil {
		g.s.ready(g.first)
		g.first = nil
	}
	for _, p := range g.more {
		g.s.ready(p)
	}
	g.more = nil
}

// Wait blocks p until the signal fires (returns immediately if it already
// has).
func (g *Signal) Wait(p *Proc) {
	if g.fired {
		return
	}
	if g.first == nil {
		g.first = p
	} else {
		g.more = append(g.more, p)
	}
	p.block()
}

// Future is a Signal carrying a value.
type Future[T any] struct {
	Signal
	value T
}

// NewFuture creates an unresolved future.
func NewFuture[T any](s *Scheduler) *Future[T] {
	return &Future[T]{Signal: Signal{s: s}}
}

// Resolve sets the value and fires the signal.
func (f *Future[T]) Resolve(v T) {
	if f.fired {
		return
	}
	f.value = v
	f.Fire()
}

// Value blocks until resolved and returns the value.
func (f *Future[T]) Value(p *Proc) T {
	f.Wait(p)
	return f.value
}
