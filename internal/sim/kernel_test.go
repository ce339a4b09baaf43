package sim

import (
	"math/rand"
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

// Property: for any random schedule, events fire in nondecreasing time
// order and all events fire exactly once.
func TestKernelOrderProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		count := int(n)%64 + 1
		fired := 0
		var last Time
		ok := true
		for i := 0; i < count; i++ {
			d := Time(rng.Intn(1000))
			k.AtTask(d, Func(func() {
				if k.Now() < last {
					ok = false
				}
				last = k.Now()
				fired++
			}))
		}
		k.Run(nil)
		return ok && fired == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
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
