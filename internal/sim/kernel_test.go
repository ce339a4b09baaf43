package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestKernelFiresInTimeOrder(t *testing.T) {
	k := NewKernel()
	var got []Time
	for _, d := range []Time{50, 10, 30, 10, 0, 99} {
		d := d
		k.AtTask(d, Func(func() { got = append(got, d) }))
	}
	k.Run(nil)
	want := []Time{0, 10, 10, 30, 50, 99}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %d, want %d", i, got[i], want[i])
		}
	}
	if k.Now() != 99 {
		t.Errorf("Now() = %d, want 99", k.Now())
	}
}

func TestKernelSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.AtTask(5, Func(func() { order = append(order, i) }))
	}
	k.Run(nil)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", order)
		}
	}
}

func TestKernelNestedScheduling(t *testing.T) {
	k := NewKernel()
	var trace []Time
	k.AtTask(10, Func(func() {
		trace = append(trace, k.Now())
		k.AfterTask(5, Func(func() { trace = append(trace, k.Now()) }))
		k.AfterTask(0, Func(func() { trace = append(trace, k.Now()) }))
	}))
	k.Run(nil)
	want := []Time{10, 10, 15}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestKernelSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.AtTask(10, Func(func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.AtTask(5, Func(func() {}))
	}))
	k.Run(nil)
}

func TestKernelRunUntil(t *testing.T) {
	k := NewKernel()
	fired := 0
	for _, d := range []Time{1, 2, 3, 10, 20} {
		k.AtTask(d, Func(func() { fired++ }))
	}
	k.RunUntil(5)
	if fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
	if k.Now() != 5 {
		t.Errorf("Now() = %d, want 5", k.Now())
	}
	k.Run(nil)
	if fired != 5 {
		t.Errorf("fired = %d, want 5", fired)
	}
}

func TestKernelRunUntilEmptyQueue(t *testing.T) {
	// With nothing scheduled, RunUntil must still advance the clock to the
	// deadline: RunUntil(t) means "simulate up to t", not "fire what's there".
	k := NewKernel()
	k.RunUntil(250)
	if k.Now() != 250 {
		t.Errorf("Now() = %d after RunUntil on empty queue, want 250", k.Now())
	}
	// A deadline already behind the clock must not move it backward.
	k.RunUntil(100)
	if k.Now() != 250 {
		t.Errorf("Now() = %d after stale RunUntil, want 250", k.Now())
	}
	// Events scheduled after the jump still fire at their own times.
	var at Time
	k.AfterTask(10, Func(func() { at = k.Now() }))
	k.RunUntil(300)
	if at != 260 {
		t.Errorf("event fired at %d, want 260", at)
	}
	if k.Now() != 300 {
		t.Errorf("Now() = %d, want 300", k.Now())
	}
}

type countActor struct {
	fired int
	at    []Time
	k     *Kernel
}

func (a *countActor) Act() {
	a.fired++
	a.at = append(a.at, a.k.Now())
}

func TestKernelActorScheduling(t *testing.T) {
	k := NewKernel()
	a := &countActor{k: k}
	k.AtTask(5, a)
	k.AfterTask(12, a)
	k.AtTask(20, ActorTask(a))
	k.AtTask(30, Func(func() {}))
	k.Run(nil)
	if a.fired != 3 {
		t.Fatalf("actor fired %d times, want 3", a.fired)
	}
	want := []Time{5, 12, 20}
	for i := range want {
		if a.at[i] != want[i] {
			t.Errorf("actor firing %d at t=%d, want %d", i, a.at[i], want[i])
		}
	}
	// Actor counts the completions that are not a Func.
	st := k.KernelStats()
	if st.Fired != 4 || st.Scheduled != 4 || st.Actor != 3 {
		t.Errorf("stats = %+v, want Fired=4 Scheduled=4 Actor=3", st)
	}
}

// seqActor records its id into a shared log when it fires.
type seqActor struct {
	id  int
	log *[]int
}

func (s *seqActor) Act() { *s.log = append(*s.log, s.id) }

// TestKernelMixedCompletionsOrder interleaves pooled Actors and Func
// closures at shared timestamps: the completion's form must not affect
// the (time, sequence) firing order.
func TestKernelMixedCompletionsOrder(t *testing.T) {
	k := NewKernel()
	var log []int
	times := []Time{7, 3, 7, 0, 3, 7, 0, 12}
	for i, at := range times {
		if i%2 == 0 {
			k.AtTask(at, &seqActor{id: i, log: &log})
		} else {
			k.AtTask(at, Func(func() { log = append(log, i) }))
		}
	}
	k.Run(nil)
	want := []int{3, 6, 1, 4, 0, 2, 5, 7}
	if len(log) != len(want) {
		t.Fatalf("fired %v, want %v", log, want)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("fired %v, want %v", log, want)
		}
	}
}

// TestKernelPrebuiltFuncAllocsNothing pins the Func adapter's contract: a
// func value is pointer-shaped, so converting a pre-built closure to Actor
// and scheduling it allocates nothing.
func TestKernelPrebuiltFuncAllocsNothing(t *testing.T) {
	k := NewKernel()
	fired := 0
	fn := func() { fired++ }
	for i := 0; i < 16; i++ { // grow the heap outside the measurement
		k.AfterTask(Time(i), Func(fn))
	}
	k.Run(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		k.AfterTask(3, Func(fn))
		k.Step()
	})
	if allocs != 0 {
		t.Errorf("scheduling a pre-built Func: %v allocs/op, want 0", allocs)
	}
	if fired != 16+1001 {
		t.Errorf("fired = %d, want %d", fired, 16+1001)
	}
}

func TestResourceNilCompletionSchedulesNothing(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "bus")
	if end := r.AcquireTask(4, nil); end != 4 {
		t.Errorf("completion = %d, want 4", end)
	}
	if k.Pending() != 0 {
		t.Errorf("nil completion scheduled %d events", k.Pending())
	}
	if r.Requests() != 1 || r.BusyCycles() != 4 {
		t.Errorf("Requests = %d, BusyCycles = %d, want 1, 4", r.Requests(), r.BusyCycles())
	}
}

func TestKernelAdvanceTo(t *testing.T) {
	k := NewKernel()
	k.AdvanceTo(40)
	if k.Now() != 40 {
		t.Fatalf("Now() = %d, want 40", k.Now())
	}
	if st := k.KernelStats(); st.Advances != 1 {
		t.Errorf("Advances = %d, want 1", st.Advances)
	}
	// Advancing to the current time is a no-op, not an extra advance.
	k.AdvanceTo(40)
	if st := k.KernelStats(); st.Advances != 1 {
		t.Errorf("Advances = %d after no-op, want 1", st.Advances)
	}
	// Advancing past a pending event would fire it at the wrong time.
	k.AfterTask(5, Func(func() {}))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AdvanceTo past a pending event did not panic")
			}
		}()
		k.AdvanceTo(50)
	}()
	// Advancing up to (not past) the pending event is legal.
	k.AdvanceTo(45)
	if next, ok := k.NextAt(); !ok || next != 45 {
		t.Errorf("NextAt = %d,%v, want 45,true", next, ok)
	}
}

func TestKernelStop(t *testing.T) {
	k := NewKernel()
	fired := 0
	for i := Time(0); i < 100; i++ {
		k.AtTask(i, Func(func() { fired++ }))
	}
	k.Run(func() bool { return fired >= 10 })
	if fired != 10 {
		t.Errorf("fired = %d, want 10", fired)
	}
}

// Property: for any random schedule, including events scheduled from
// inside Act, the kernel fires every event exactly once and in exactly
// the order of a reference sort by (time, schedule sequence). Delays run
// from 0 to three wheel spans, weighted toward small values and toward
// the wheel/heap boundary, so that heap and wheel events often share a
// cycle and the heap-first tie rule decides their order.
func TestKernelOrderProperty(t *testing.T) {
	type ev struct {
		at  Time
		seq int
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		delay := func() Time {
			switch r := rng.Intn(10); {
			case r < 4:
				return Time(rng.Intn(8))
			case r < 7:
				return wheelSpan - 2 + Time(rng.Intn(5)) // span-2 .. span+2
			default:
				return Time(rng.Intn(3*wheelSpan + 1))
			}
		}
		k := NewKernel()
		var scheduled []ev
		var fired []int
		budget := 4 * (int(n) + 1) // events that Act may still schedule
		var schedule func(d Time)
		schedule = func(d Time) {
			e := ev{at: k.Now() + d, seq: len(scheduled)}
			scheduled = append(scheduled, e)
			k.AfterTask(d, Func(func() {
				if k.Now() != e.at {
					t.Errorf("event %d fired at %d, want %d", e.seq, k.Now(), e.at)
				}
				fired = append(fired, e.seq)
				for budget > 0 && rng.Intn(3) > 0 {
					budget--
					if rng.Intn(4) == 0 {
						schedule(0)
					} else {
						schedule(delay())
					}
				}
			}))
		}
		for i := int(n)%64 + 1; i > 0; i-- {
			schedule(delay())
		}
		k.Run(nil)
		want := append([]ev(nil), scheduled...)
		sort.Slice(want, func(i, j int) bool {
			return want[i].at < want[j].at || (want[i].at == want[j].at && want[i].seq < want[j].seq)
		})
		if len(fired) != len(want) || k.Pending() != 0 {
			return false
		}
		for i := range want {
			if fired[i] != want[i].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// logAt schedules an event at t that appends id to log.
func logAt(k *Kernel, t Time, id int, log *[]int) {
	k.AtTask(t, Func(func() { *log = append(*log, id) }))
}

func checkLog(t *testing.T, got []int, want ...int) {
	t.Helper()
	if !slices.Equal(got, want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
}

// A heap event and a wheel event due the same cycle: the heap event was
// scheduled first, so it fires first.
func TestKernelHeapBeforeWheelOnTie(t *testing.T) {
	k := NewKernel()
	var log []int
	logAt(k, wheelSpan, 0, &log) // span ahead: heap
	if len(k.heap) != 1 || k.nwheel != 0 {
		t.Fatalf("heap %d, wheel %d; want the event in the heap", len(k.heap), k.nwheel)
	}
	k.AdvanceTo(1)
	logAt(k, wheelSpan, 1, &log) // span-1 ahead: wheel
	logAt(k, wheelSpan, 2, &log)
	if len(k.heap) != 1 || k.nwheel != 2 {
		t.Fatalf("heap %d, wheel %d; want 1, 2", len(k.heap), k.nwheel)
	}
	k.Run(nil)
	checkLog(t, log, 0, 1, 2)
}

// Delays of span-1 and span fall on either side of the wheel/heap
// boundary and fire at their own times.
func TestKernelWheelBoundaryDelays(t *testing.T) {
	k := NewKernel()
	k.AdvanceTo(100)
	var at []Time
	rec := Func(func() { at = append(at, k.Now()) })
	k.AfterTask(wheelSpan, rec)
	k.AfterTask(wheelSpan-1, rec)
	if len(k.heap) != 1 || k.nwheel != 1 {
		t.Fatalf("heap %d, wheel %d; want 1, 1", len(k.heap), k.nwheel)
	}
	k.Run(nil)
	if len(at) != 2 || at[0] != 100+wheelSpan-1 || at[1] != 100+wheelSpan {
		t.Fatalf("fired at %v, want [%d %d]", at, 100+wheelSpan-1, 100+wheelSpan)
	}
}

// Buckets are reused as now passes several multiples of the span: a
// chain of events landing just before and just after each wrap, each
// with a companion one span later in the same bucket, fires every event
// at its own time.
func TestKernelWheelWrapAround(t *testing.T) {
	k := NewKernel()
	delays := []Time{wheelSpan - 1, 1, 1, wheelSpan - 2, 3, wheelSpan, 2*wheelSpan + 5, 7, wheelSpan - 1}
	fired := 0
	var chain func(i int)
	chain = func(i int) {
		if i == len(delays) {
			return
		}
		for j, d := range []Time{delays[i], delays[i] + wheelSpan} {
			want := k.Now() + d
			k.AfterTask(d, Func(func() {
				if k.Now() != want {
					t.Errorf("event fired at %d, want %d", k.Now(), want)
				}
				fired++
				if j == 0 {
					chain(i + 1)
				}
			}))
		}
	}
	chain(0)
	k.Run(nil)
	if fired != 2*len(delays) {
		t.Errorf("fired %d events, want %d", fired, 2*len(delays))
	}
	if k.Now() < 5*wheelSpan {
		t.Errorf("chain ended at %d, want past %d", k.Now(), 5*wheelSpan)
	}
}

// AdvanceTo must not pass a pending event, whether it sits in the wheel
// or in the heap.
func TestKernelAdvanceToPastWheelOrHeapPanics(t *testing.T) {
	for _, d := range []Time{5, wheelSpan - 1, wheelSpan, 3 * wheelSpan} {
		k := NewKernel()
		k.AfterTask(d, Func(func() {}))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("delay %d: AdvanceTo past the event did not panic", d)
				}
			}()
			k.AdvanceTo(d + 1)
		}()
		k.AdvanceTo(d) // up to the event is legal
	}
}

// NextAt, Pending and RunUntil see events in both the wheel and the heap.
func TestKernelWheelAndHeapQueries(t *testing.T) {
	k := NewKernel()
	var log []int
	logAt(k, 3*wheelSpan, 0, &log) // heap
	logAt(k, 10, 1, &log)          // wheel
	logAt(k, wheelSpan+1, 2, &log) // heap
	if k.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", k.Pending())
	}
	if next, ok := k.NextAt(); !ok || next != 10 {
		t.Fatalf("NextAt = %d,%v, want 10 (wheel)", next, ok)
	}
	k.RunUntil(wheelSpan)
	checkLog(t, log, 1)
	if next, ok := k.NextAt(); !ok || next != wheelSpan+1 || k.Now() != wheelSpan {
		t.Fatalf("NextAt = %d,%v at %d, want %d (heap) at %d", next, ok, k.Now(), wheelSpan+1, wheelSpan)
	}
	logAt(k, wheelSpan+2, 3, &log) // wheel, after the heap head
	logAt(k, 2*wheelSpan, 4, &log) // wheel
	if k.Pending() != 4 {
		t.Fatalf("Pending = %d, want 4", k.Pending())
	}
	k.RunUntil(2 * wheelSpan)
	checkLog(t, log, 1, 2, 3, 4)
	if next, ok := k.NextAt(); !ok || next != 3*wheelSpan {
		t.Fatalf("NextAt = %d,%v, want %d", next, ok, 3*wheelSpan)
	}
	k.RunUntil(4 * wheelSpan)
	checkLog(t, log, 1, 2, 3, 4, 0)
	if _, ok := k.NextAt(); ok || k.Pending() != 0 || k.Now() != 4*wheelSpan {
		t.Fatalf("after draining: NextAt ok=%v, Pending %d, Now %d", ok, k.Pending(), k.Now())
	}
}

// Fired wheel events return their slab nodes for reuse: the queue drains
// to Pending() == 0, and steady churn at a fixed depth does not grow the
// slab past the depth it first reached.
func TestKernelWheelSlabReuse(t *testing.T) {
	k := NewKernel()
	a := Func(func() {})
	const depth = 300
	for i := 0; i < depth; i++ {
		k.AfterTask(Time(i*7%(wheelSpan-1)), a)
	}
	churn := func(n int) {
		for i := 0; i < n; i++ {
			k.AfterTask(Time(i*13%(wheelSpan-1)), a)
			k.Step()
		}
	}
	churn(1) // one event beyond depth is pending between push and fire
	high := len(k.slab)
	churn(100000)
	if len(k.slab) != high {
		t.Errorf("slab grew from %d to %d nodes under steady churn", high, len(k.slab))
	}
	k.Run(nil)
	if k.Pending() != 0 || k.nwheel != 0 {
		t.Errorf("Pending = %d, wheel %d after draining", k.Pending(), k.nwheel)
	}
	for i, w := range k.occ {
		if w != 0 {
			t.Errorf("occupancy word %d = %#x after draining", i, w)
		}
	}
}

func TestResourceSerializesOverlappingRequests(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "bus")
	var ends []Time
	k.AtTask(0, Func(func() {
		r.AcquireTask(10, Func(func() { ends = append(ends, k.Now()) }))
		r.AcquireTask(10, Func(func() { ends = append(ends, k.Now()) }))
		r.AcquireTask(5, Func(func() { ends = append(ends, k.Now()) }))
	}))
	k.Run(nil)
	want := []Time{10, 20, 25}
	for i := range want {
		if ends[i] != want[i] {
			t.Fatalf("ends = %v, want %v", ends, want)
		}
	}
	if r.WaitCycles() != 10+20 {
		t.Errorf("WaitCycles = %d, want 30", r.WaitCycles())
	}
	if r.BusyCycles() != 25 {
		t.Errorf("BusyCycles = %d, want 25", r.BusyCycles())
	}
}

func TestResourceIdleGapThenAcquire(t *testing.T) {
	k := NewKernel()
	r := NewResource(k, "bus")
	var end Time
	k.AtTask(0, Func(func() { r.AcquireTask(5, nil) }))
	k.AtTask(100, Func(func() {
		end = r.AcquireTask(5, nil)
	}))
	k.Run(nil)
	if end != 105 {
		t.Errorf("second acquire completed at %d, want 105", end)
	}
	if r.WaitCycles() != 0 {
		t.Errorf("WaitCycles = %d, want 0", r.WaitCycles())
	}
}

func TestCoroutineHandoff(t *testing.T) {
	var trace []string
	var co *Coroutine
	co = NewCoroutine(func() {
		trace = append(trace, "a")
		co.Yield()
		trace = append(trace, "b")
		co.Yield()
		trace = append(trace, "c")
	})
	for i := 0; i < 3; i++ {
		alive := co.Resume()
		trace = append(trace, "k")
		if i < 2 && !alive {
			t.Fatal("coroutine finished early")
		}
		if i == 2 && alive {
			t.Fatal("coroutine still alive after body returned")
		}
	}
	want := []string{"a", "k", "b", "k", "c", "k"}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if !co.Finished() {
		t.Error("Finished() = false after completion")
	}
}

func TestCoroutinePanicPropagates(t *testing.T) {
	co := NewCoroutine(func() { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Error("panic in body did not propagate to Resume")
		}
	}()
	co.Resume()
}

func TestCoroutineStopBeforeStart(t *testing.T) {
	ran := false
	co := NewCoroutine(func() { ran = true })
	co.Stop()
	if ran {
		t.Error("Stop before the first Resume ran the body")
	}
	if !co.Finished() {
		t.Error("Finished() = false after Stop")
	}
}

func TestCoroutineStopUnwindsBody(t *testing.T) {
	// The body polls state that never changes, so only unwinding at
	// Yield can end it.
	var co *Coroutine
	never, deferred, after := false, false, false
	co = NewCoroutine(func() {
		defer func() { deferred = true }()
		for !never {
			co.Yield()
		}
		after = true
	})
	for i := 0; i < 3; i++ {
		if !co.Resume() {
			t.Fatal("coroutine finished early")
		}
	}
	co.Stop()
	if !deferred {
		t.Error("Stop did not run the body's deferred calls")
	}
	if after {
		t.Error("Yield returned after Stop")
	}
	if !co.Finished() {
		t.Error("Finished() = false after Stop")
	}
	co.Stop() // a second Stop is a no-op
}

func TestCoroutineStopPropagatesPanic(t *testing.T) {
	var co *Coroutine
	co = NewCoroutine(func() {
		defer func() { panic("cleanup failed") }()
		co.Yield()
	})
	co.Resume()
	defer func() {
		if r := recover(); r != "sim: process panicked: cleanup failed" {
			t.Errorf("Stop raised %v, want the body's unwinding panic", r)
		}
	}()
	co.Stop()
}

func TestCoroutineResumeAfterStopPanics(t *testing.T) {
	var co *Coroutine
	co = NewCoroutine(func() {
		for {
			co.Yield()
		}
	})
	co.Resume()
	co.Stop()
	defer func() {
		if recover() == nil {
			t.Error("Resume after Stop did not panic")
		}
	}()
	co.Resume()
}

func TestCoroutineInterleavingDeterministic(t *testing.T) {
	// Two coroutines resumed alternately must interleave identically
	// every run.
	run := func() []int {
		var out []int
		var a, b *Coroutine
		a = NewCoroutine(func() {
			for i := 0; i < 5; i++ {
				out = append(out, i*2)
				a.Yield()
			}
		})
		b = NewCoroutine(func() {
			for i := 0; i < 5; i++ {
				out = append(out, i*2+1)
				b.Yield()
			}
		})
		for i := 0; i < 5; i++ {
			a.Resume()
			b.Resume()
		}
		// Drain: final Resume lets the bodies return.
		a.Resume()
		b.Resume()
		return out
	}
	first := run()
	for trial := 0; trial < 10; trial++ {
		again := run()
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", first, again)
			}
		}
	}
}
