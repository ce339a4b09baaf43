// Package sim provides the deterministic discrete-event simulation kernel
// that underlies the architecture simulator. All timing in the machine is
// expressed in processor clock cycles (pclocks, 1 pclock = 30 ns on the
// 33 MHz DASH prototype the paper models).
//
// The kernel is strictly single-threaded: events fire in (time, sequence)
// order, so two events scheduled for the same cycle fire in the order they
// were scheduled. This gives bit-identical results across runs, which the
// reproduction relies on.
//
// Every completion is an Actor: pooled model objects implement it as a
// stage machine, and one-off closures go through the Func adapter.
//
// The event queue is shaped like the delay distribution: almost every
// delay the machine model schedules is a small Table 1 constant (bus
// hold, wire, memory access, mesh hop). An event due fewer than wheelSpan
// cycles ahead goes into a timing wheel of one-cycle FIFO buckets; a
// later one spills to a value-typed 4-ary min-heap ordered by (time,
// sequence). Both store the Actor inline, so scheduling a pre-built Actor
// allocates nothing once the queue has reached its high-water mark.
package sim

import (
	"fmt"
	"math/bits"
)

// Time is a point in simulated time, in processor clock cycles.
type Time uint64

// Actor is the simulator's one completion type: every kernel event,
// resource grant, waiter list and transaction callback holds an Actor.
// Model objects with multi-step lifecycles (a context, a miss record, a
// network message) implement Act as a small state machine and reschedule
// themselves through their stages. Where a completion is optional (a
// resource grant, a read, a buffered write) nil means none; a nil kernel
// event is a modeling bug and panics when it fires.
type Actor interface {
	Act()
}

// Func adapts a one-off closure to Actor. A func value is pointer-shaped,
// so converting a Func to Actor stores it in the interface word without
// allocating; only building the closure itself may allocate.
type Func func()

// Act implements Actor.
func (f Func) Act() { f() }

// ActorTask returns a unchanged. It exists only because the hostbench
// module, which is built against this name, calls it.
func ActorTask(a Actor) Actor { return a }

// event is a scheduled callback, stored by value in the heap slice.
type event struct {
	at  Time
	seq uint64 // tie-breaker: schedule order
	act Actor
}

// before reports whether e fires before o in (time, sequence) order.
func (e *event) before(o *event) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// wheelSpan is the timing wheel's size in one-cycle buckets: an event due
// fewer than wheelSpan cycles ahead goes into the wheel, a later one to
// the heap. It must be a power of two and a multiple of 64. Measured
// scheduled delays reach p99.99 = 1464 cycles on LU at 256 processors and
// stay under 256 on the 16-processor figures, so 2048 puts nearly every
// event in the wheel.
const (
	wheelSpan  = 2048
	wheelMask  = wheelSpan - 1
	wheelWords = wheelSpan / 64
)

// wheelNode is one wheel event in the kernel's shared node slab: its
// completion and the slab index of the next event in its bucket (0 ends
// the list; slab[0] is a sentinel that is never used).
type wheelNode struct {
	act  Actor
	next int32
}

// bucket is a FIFO list of slab nodes, all due at the same cycle.
type bucket struct{ head, tail int32 }

// Kernel is the discrete-event simulation engine. The zero value is not
// usable; construct with NewKernel.
//
// The queue is a timing wheel in front of a 4-ary min-heap. Every wheel
// event lies in [now, now+wheelSpan), so bucket t&wheelMask holds events
// of cycle t only, in schedule order. A heap event for cycle t was
// scheduled while t >= now+wheelSpan, and now never decreases, so it was
// scheduled before any wheel event for t: on a tie the heap event fires
// first. That rule, with FIFO buckets, fires events in exactly (time,
// sequence) order without storing a sequence number in the wheel.
//
// The buckets share one node slab with a free list, so wheel storage is
// bounded by the peak number of pending wheel events rather than by every
// bucket's own high-water mark, which bursts of invalidations would
// otherwise grow one bucket at a time.
type Kernel struct {
	now Time
	seq uint64 // heap events scheduled so far; the heap's tie-breaker

	wheel  [wheelSpan]bucket
	occ    [wheelWords]uint64 // bit i set iff wheel[i] is non-empty
	slab   []wheelNode        // wheel event storage; slab[0] is the sentinel
	free   int32              // head of the slab free list, 0 if empty
	nwheel int                // events in the wheel

	// heap holds the events due wheelSpan or more cycles ahead when
	// scheduled: a value-typed 4-ary min-heap ordered by (at, seq).
	heap []event

	// Counters, surfaced through machine results and runner metrics.
	events    uint64 // events fired
	scheduled uint64 // events pushed
	actors    uint64 // of scheduled, events whose completion is not a Func
	advances  uint64 // clock advances without an event (sync fast-path completions)
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel { return &Kernel{slab: make([]wheelNode, 1, 64)} }

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Events returns the total number of events fired so far.
func (k *Kernel) Events() uint64 { return k.events }

// Pending returns the number of events still scheduled.
func (k *Kernel) Pending() int { return k.nwheel + len(k.heap) }

// Stats is a snapshot of the kernel's scheduling counters.
type Stats struct {
	Fired     uint64 // events executed
	Scheduled uint64 // events pushed into the queue
	Actor     uint64 // of Scheduled, how many completions were not a Func
	Advances  uint64 // clock advances taken without firing an event
}

// KernelStats returns the scheduling counters.
func (k *Kernel) KernelStats() Stats {
	return Stats{Fired: k.events, Scheduled: k.scheduled, Actor: k.actors, Advances: k.advances}
}

// AtTask schedules a.Act() at absolute time t. Scheduling in the past
// (t < Now) panics: it always indicates a modeling bug.
func (k *Kernel) AtTask(t Time, a Actor) {
	if t < k.now {
		//hookpure:alloc failure path only; scheduling into the past aborts the run
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, k.now))
	}
	k.scheduled++
	if _, ok := a.(Func); !ok {
		k.actors++
	}
	if t-k.now < wheelSpan {
		k.wheelPush(t, a)
		return
	}
	k.seq++
	k.push(event{at: t, seq: k.seq, act: a})
}

// AfterTask schedules a.Act() delay cycles from now.
func (k *Kernel) AfterTask(delay Time, a Actor) { k.AtTask(k.now+delay, a) }

// NextAt returns the timestamp of the earliest pending event, if any.
func (k *Kernel) NextAt() (Time, bool) {
	if k.nwheel > 0 {
		t := k.wheelNext()
		if len(k.heap) > 0 && k.heap[0].at <= t {
			return k.heap[0].at, true
		}
		return t, true
	}
	if len(k.heap) == 0 {
		return 0, false
	}
	return k.heap[0].at, true
}

// AdvanceTo moves the clock forward to t without firing an event. It is
// the synchronous fast path: when the caller has proven no event fires
// before t (NextAt > t or the queue is empty), completing work inline at t
// is indistinguishable from scheduling and firing an event there. Panics
// if an earlier event is pending or t is in the past.
func (k *Kernel) AdvanceTo(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: advancing clock to %d before now %d", t, k.now))
	}
	if next, ok := k.NextAt(); ok && next < t {
		panic(fmt.Sprintf("sim: advancing clock to %d past pending event at %d", t, next))
	}
	if t > k.now {
		k.now = t
		k.advances++
	}
}

// Step fires the next event, advancing the clock to its timestamp.
// It reports whether an event was fired.
func (k *Kernel) Step() bool {
	if k.nwheel > 0 {
		t := k.wheelNext()
		if len(k.heap) == 0 || t < k.heap[0].at {
			a := k.wheelPop(uint(t) & wheelMask)
			k.now = t
			k.events++
			a.Act()
			return true
		}
	}
	if len(k.heap) == 0 {
		return false
	}
	e := k.pop()
	k.now = e.at
	k.events++
	e.act.Act()
	return true
}

// Run fires events until the queue is empty or stop returns true. stop may
// be nil, meaning run to exhaustion. It returns the number of events fired.
func (k *Kernel) Run(stop func() bool) uint64 {
	var n uint64
	for (stop == nil || !stop()) && k.Step() {
		n++
	}
	return n
}

// RunUntil fires events with timestamps <= deadline, then advances the
// clock to the deadline if it is still behind (in particular, on an empty
// queue the clock jumps straight to the deadline).
func (k *Kernel) RunUntil(deadline Time) {
	for {
		if t, ok := k.NextAt(); !ok || t > deadline {
			break
		}
		k.Step()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// wheelPush appends a to the bucket of cycle t, which must lie in
// [now, now+wheelSpan). Wheel state is written through the receiver, not
// through a local *bucket, which hookpure would count as a write to model
// state from any hook that schedules.
func (k *Kernel) wheelPush(t Time, a Actor) {
	n := k.free
	if n != 0 {
		k.free = k.slab[n].next
		k.slab[n] = wheelNode{act: a}
	} else {
		n = int32(len(k.slab))
		//hookpure:alloc amortized: the slab grows to the pending-wheel-event high-water mark, then stabilizes
		k.slab = append(k.slab, wheelNode{act: a})
	}
	i := uint(t) & wheelMask
	if k.wheel[i].tail == 0 {
		k.wheel[i].head = n
		k.occ[i>>6] |= 1 << (i & 63)
	} else {
		k.slab[k.wheel[i].tail].next = n
	}
	k.wheel[i].tail = n
	k.nwheel++
}

// wheelPop removes and returns the first event of the non-empty bucket i,
// returning its slab node to the free list.
func (k *Kernel) wheelPop(i uint) Actor {
	n := k.wheel[i].head
	a, next := k.slab[n].act, k.slab[n].next
	k.wheel[i].head = next
	if next == 0 {
		k.wheel[i].tail = 0
		k.occ[i>>6] &^= 1 << (i & 63)
	}
	k.slab[n] = wheelNode{next: k.free} // release the callback reference to the GC
	k.free = n
	k.nwheel--
	return a
}

// wheelNext returns the cycle of the earliest wheel event; the wheel must
// be non-empty. Buckets are scanned in circular order from now's, which
// is time order because every wheel event lies in [now, now+wheelSpan).
func (k *Kernel) wheelNext() Time {
	s := uint(k.now) & wheelMask
	w := s >> 6
	if b := k.occ[w] >> (s & 63); b != 0 {
		return k.now + Time(bits.TrailingZeros64(b))
	}
	for j := uint(1); j <= wheelWords; j++ {
		// j == wheelWords revisits word w for the buckets below s, which
		// hold the latest cycles of the span.
		ww := (w + j) & (wheelWords - 1)
		if b := k.occ[ww]; b != 0 {
			i := ww<<6 + uint(bits.TrailingZeros64(b))
			return k.now + Time((i-s)&wheelMask)
		}
	}
	panic("sim: wheel count and occupancy bitmap disagree")
}

// 4-ary min-heap over the value slice. A wider node roughly halves the
// tree depth versus a binary heap, trading a few extra comparisons per
// level for fewer cache-missing levels — a win at simulator queue depths.

func (k *Kernel) push(e event) {
	//hookpure:alloc amortized: the event heap grows to the in-flight high-water mark, then stabilizes
	h := append(k.heap, e)
	// Sift up: shift parents down until e's slot is found.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !e.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	k.heap = h
}

func (k *Kernel) pop() event {
	h := k.heap
	min := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // release the callback reference to the GC
	h = h[:n]
	k.heap = h
	if n > 0 {
		// Sift down: move holes toward the leaves until last fits.
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			m := c
			end := c + 4
			if end > n {
				end = n
			}
			for j := c + 1; j < end; j++ {
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
	return min
}

// Pool is a deterministic LIFO free list for hot-path simulation records
// (miss records, write-buffer entries, network messages). It is not
// thread-safe; each kernel's model objects own their pools, matching the
// kernel's single-threaded discipline. Callers must reset an object's
// fields before or after Put — Get returns recycled objects as-is.
type Pool[T any] struct {
	free []*T
}

// Get returns a recycled object, or a new zero-valued one when the pool is
// empty.
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	return new(T) //hookpure:alloc free-list miss only; steady state recycles via Put
}

// Put recycles an object for a later Get.
//
//hookpure:alloc the free list grows to the in-flight high-water mark, then stabilizes
func (p *Pool[T]) Put(x *T) { p.free = append(p.free, x) }
