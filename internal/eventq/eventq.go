// Package eventq implements a discrete-event scheduler: a simulated clock
// and a time-ordered queue of callbacks.
//
// The MANET simulator is event driven at the protocol timescale —
// contact validation rounds, topology refreshes — while
// individual control packets (CSQ walks, DSQ fan-outs) execute as
// synchronous hop-by-hop walks inside a single event, because packet flight
// time is orders of magnitude below the mobility timescale (the paper's
// NS-2 setup likewise ignores MAC/PHY timing).
//
// Events at equal timestamps fire in scheduling order (stable FIFO), which
// keeps runs deterministic.
package eventq

import (
	"container/heap"
	"fmt"
)

// Handle identifies a scheduled event and can cancel it.
type Handle struct {
	q  *Queue
	id uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancel reports whether the event was
// still pending.
func (h Handle) Cancel() bool {
	if h.q == nil {
		return false
	}
	_, pending := h.q.pending[h.id]
	if pending {
		delete(h.q.pending, h.id)
	}
	return pending
}

type event struct {
	at  float64
	seq uint64 // tie-break: FIFO among equal timestamps
	id  uint64
	fn  func(now float64)
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any) {
	*h = append(*h, x.(*event))
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Queue is a discrete-event queue with a monotonically advancing clock.
// The zero value is not usable; call New.
type Queue struct {
	now     float64
	events  eventHeap
	nextSeq uint64
	nextID  uint64
	pending map[uint64]struct{}
}

// New returns an empty queue with the clock at 0.
func New() *Queue {
	return &Queue{pending: make(map[uint64]struct{})}
}

// Now returns the current simulated time in seconds.
func (q *Queue) Now() float64 { return q.now }

// Len returns the number of scheduled (non-cancelled) events.
func (q *Queue) Len() int { return len(q.pending) }

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) panics: it would silently reorder causality.
func (q *Queue) At(t float64, fn func(now float64)) Handle {
	if t < q.now {
		panic(fmt.Sprintf("eventq: scheduling at %v before now %v", t, q.now))
	}
	if fn == nil {
		panic("eventq: nil event function")
	}
	e := &event{at: t, seq: q.nextSeq, id: q.nextID, fn: fn}
	q.nextSeq++
	q.nextID++
	q.pending[e.id] = struct{}{}
	heap.Push(&q.events, e)
	return Handle{q: q, id: e.id}
}

// After schedules fn to run delay seconds from now.
func (q *Queue) After(delay float64, fn func(now float64)) Handle {
	if delay < 0 {
		panic("eventq: negative delay")
	}
	return q.At(q.now+delay, fn)
}

// Every schedules fn to run now+offset, then every period seconds until the
// returned handle is cancelled or the run horizon ends. period must be
// positive.
func (q *Queue) Every(offset, period float64, fn func(now float64)) *Ticker {
	if period <= 0 {
		panic("eventq: non-positive period")
	}
	t := &Ticker{q: q, period: period, fn: fn}
	t.handle = q.After(offset, t.tick)
	return t
}

// Ticker is a repeating event created by Every.
type Ticker struct {
	q       *Queue
	period  float64
	fn      func(now float64)
	handle  Handle
	stopped bool
}

func (t *Ticker) tick(now float64) {
	if t.stopped {
		return
	}
	t.fn(now)
	if !t.stopped { // fn may have stopped us
		t.handle = t.q.After(t.period, t.tick)
	}
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.handle.Cancel()
}

// Step runs the single earliest pending event, advancing the clock to its
// timestamp. It reports whether an event ran.
func (q *Queue) Step() bool {
	for len(q.events) > 0 {
		e := heap.Pop(&q.events).(*event)
		if _, ok := q.pending[e.id]; !ok {
			continue // cancelled
		}
		delete(q.pending, e.id)
		q.now = e.at
		e.fn(q.now)
		return true
	}
	return false
}

// RunUntil executes events in order until the queue is empty or the next
// event is after t, then advances the clock to exactly t.
func (q *Queue) RunUntil(t float64) {
	if t < q.now {
		panic(fmt.Sprintf("eventq: RunUntil(%v) before now %v", t, q.now))
	}
	for len(q.events) > 0 {
		// Peek at the earliest live event.
		e := q.events[0]
		if _, ok := q.pending[e.id]; !ok {
			heap.Pop(&q.events)
			continue
		}
		if e.at > t {
			break
		}
		q.Step()
	}
	q.now = t
}

// Drain runs all pending events to exhaustion and returns how many ran.
// Use in tests; production runs should bound time with RunUntil.
func (q *Queue) Drain() int {
	n := 0
	for q.Step() {
		n++
	}
	return n
}
