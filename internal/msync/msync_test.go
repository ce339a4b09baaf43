package msync

import (
	"testing"

	"latsim/internal/config"
	"latsim/internal/mem"
	"latsim/internal/memsys"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// rig builds a kernel + nodes for direct lock/barrier testing.
type rig struct {
	k     *sim.Kernel
	alloc *mem.Allocator
	nodes []*memsys.Node
}

func newRig(n int) *rig {
	cfg := config.Default()
	cfg.Procs = n
	k := sim.NewKernel()
	alloc := mem.NewAllocator(n)
	r := &rig{k: k, alloc: alloc}
	c := cfg
	for i := 0; i < n; i++ {
		r.nodes = append(r.nodes, memsys.NewNode(k, i, &c, alloc, &stats.Proc{}))
	}
	for _, nd := range r.nodes {
		nd.Connect(r.nodes)
	}
	return r
}

func (r *rig) lock() *Lock { return NewLock(r.alloc.Alloc(mem.LineSize)) }

func TestLockGrantsInFIFOOrder(t *testing.T) {
	r := newRig(4)
	lk := r.lock()
	var order []int
	// Node 0 takes the lock; nodes 1..3 queue in order.
	lk.Acquire(r.nodes[0], sim.Func(func() {
		for i := 1; i < 4; i++ {
			i := i
			lk.Acquire(r.nodes[i], sim.Func(func() {
				order = append(order, i)
				lk.ReleaseRetired()
			}))
		}
		lk.ReleaseRetired()
	}))
	r.k.Run(nil)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("grant order = %v, want [1 2 3]", order)
	}
	if lk.Held() {
		t.Error("lock still held after all releases")
	}
}

func TestLockFreeAcquireCostsOwnership(t *testing.T) {
	r := newRig(2)
	lk := NewLock(r.alloc.AllocOnNode(mem.LineSize, 1))
	var granted sim.Time
	lk.Acquire(r.nodes[0], sim.Func(func() { granted = r.k.Now() }))
	r.k.Run(nil)
	if granted != 64 {
		t.Errorf("remote lock acquire latency = %d, want 64 (write-ownership)", granted)
	}
	if lk.Holder() != 0 {
		t.Errorf("holder = %d, want 0", lk.Holder())
	}
}

func TestLockHandoffLatency(t *testing.T) {
	r := newRig(2)
	lk := NewLock(r.alloc.AllocOnNode(mem.LineSize, 0))
	var granted sim.Time
	lk.Acquire(r.nodes[0], sim.Func(func() {}))
	lk.Acquire(r.nodes[1], sim.Func(func() { granted = r.k.Now() }))
	r.k.AtTask(1000, sim.Func(func() { lk.ReleaseRetired() }))
	r.k.Run(nil)
	if granted <= 1000 {
		t.Errorf("handoff at %d: must cost a fresh ownership transaction after the release", granted)
	}
	if granted > 1200 {
		t.Errorf("handoff at %d: unreasonably slow", granted)
	}
}

func TestSetHeldProducerConsumer(t *testing.T) {
	r := newRig(2)
	lk := r.lock()
	lk.SetHeld()
	if !lk.Held() || lk.Holder() != -1 {
		t.Fatal("SetHeld did not mark the lock held/ownerless")
	}
	var granted bool
	lk.Acquire(r.nodes[1], sim.Func(func() { granted = true }))
	r.k.Run(nil)
	if granted {
		t.Fatal("consumer acquired a pre-held lock before the producer released")
	}
	lk.ReleaseRetired()
	r.k.Run(nil)
	if !granted {
		t.Fatal("consumer not granted after release")
	}
}

func TestSetHeldTwicePanics(t *testing.T) {
	lk := NewLock(mem.Addr(4096))
	lk.SetHeld()
	defer func() {
		if recover() == nil {
			t.Error("second SetHeld did not panic")
		}
	}()
	lk.SetHeld()
}

func TestReleaseUnheldPanics(t *testing.T) {
	lk := NewLock(mem.Addr(4096))
	defer func() {
		if recover() == nil {
			t.Error("release of unheld lock did not panic")
		}
	}()
	lk.ReleaseRetired()
}

func TestBarrierReleasesAllTogether(t *testing.T) {
	r := newRig(4)
	bar := NewBarrier(r.alloc.Alloc(mem.LineSize), r.alloc.Alloc(mem.LineSize), 4)
	released := 0
	arrive := func(i int, at sim.Time) {
		r.k.AtTask(at, sim.Func(func() {
			bar.Arrive(r.nodes[i], sim.Func(func() { released++ }))
		}))
	}
	arrive(0, 0)
	arrive(1, 100)
	arrive(2, 200)
	r.k.RunUntil(5000)
	if released != 0 {
		t.Fatalf("%d processes released before the last arrival", released)
	}
	arrive(3, 6000)
	r.k.Run(nil)
	if released != 4 {
		t.Fatalf("released = %d, want 4", released)
	}
}

func TestBarrierReusableAcrossPhases(t *testing.T) {
	r := newRig(2)
	bar := NewBarrier(r.alloc.Alloc(mem.LineSize), r.alloc.Alloc(mem.LineSize), 2)
	phases := 0
	var phase func()
	phase = func() {
		if phases == 3 {
			return
		}
		done := 0
		for i := 0; i < 2; i++ {
			bar.Arrive(r.nodes[i], sim.Func(func() {
				done++
				if done == 2 {
					phases++
					phase()
				}
			}))
		}
	}
	phase()
	r.k.Run(nil)
	if phases != 3 {
		t.Errorf("completed %d phases, want 3", phases)
	}
}

func TestBarrierValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("same-line counter/flag should panic")
		}
	}()
	NewBarrier(mem.Addr(4096), mem.Addr(4100), 2)
}

func TestBarrierZeroParticipantsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("0-participant barrier should panic")
		}
	}()
	NewBarrier(mem.Addr(4096), mem.Addr(8192), 0)
}

func TestLockWaitersCount(t *testing.T) {
	r := newRig(4)
	lk := r.lock()
	lk.Acquire(r.nodes[0], sim.Func(func() {}))
	lk.Acquire(r.nodes[1], sim.Func(func() {}))
	lk.Acquire(r.nodes[2], sim.Func(func() {}))
	r.k.Run(nil)
	if lk.Waiters() != 2 {
		t.Errorf("waiters = %d, want 2", lk.Waiters())
	}
}

// TestLockFIFOManyWaitersAndLateArrivals checks the lock against a model
// FIFO queue with many waiters: every holder releases and at once
// acquires again, so its new Acquire arrives while the handoff it just
// started is in flight. Grants must follow the model's order exactly and
// Waiters must equal the model's length after every step, across enough
// handoffs that the queue wraps its storage several times.
func TestLockFIFOManyWaitersAndLateArrivals(t *testing.T) {
	const nodes, rounds = 24, 5
	r := newRig(nodes)
	lk := r.lock()
	var model, want, order []int
	grants := make([]int, nodes)
	check := func(when string) {
		t.Helper()
		if lk.Waiters() != len(model) {
			t.Fatalf("%s: Waiters() = %d, model queue %v", when, lk.Waiters(), model)
		}
	}
	var acquire func(i int)
	grant := func(i int) {
		order = append(order, i)
		grants[i]++
		r.k.AfterTask(40, sim.Func(func() {
			lk.ReleaseRetired()
			if len(model) > 0 {
				want = append(want, model[0])
				model = model[1:]
			}
			check("after release")
			if grants[i] < rounds {
				acquire(i)
			}
		}))
	}
	acquire = func(i int) {
		if lk.Held() {
			model = append(model, i)
		} else {
			want = append(want, i)
		}
		lk.Acquire(r.nodes[i], sim.Func(func() { grant(i) }))
		check("after acquire")
	}
	acquire(0)
	for i := 1; i < nodes; i++ {
		acquire(i)
	}
	r.k.Run(nil)
	if len(order) != nodes*rounds {
		t.Fatalf("%d grants, want %d", len(order), nodes*rounds)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("grant %d went to node %d, want %d (order %v)", i, order[i], want[i], order)
		}
	}
	if lk.Held() || lk.Waiters() != 0 {
		t.Errorf("after the last release: held=%v waiters=%d", lk.Held(), lk.Waiters())
	}
}

// TestLockAcquireDuringHandoff: an Acquire issued in the cycle of a
// release, while the handoff's ownership transaction is in flight, queues
// behind the waiters already there.
func TestLockAcquireDuringHandoff(t *testing.T) {
	r := newRig(4)
	lk := r.lock()
	var order []int
	acq := func(i int) {
		lk.Acquire(r.nodes[i], sim.Func(func() {
			order = append(order, i)
			if i != 0 {
				r.k.AfterTask(20, sim.Func(func() { lk.ReleaseRetired() }))
			}
		}))
	}
	acq(0)
	acq(1)
	acq(2)
	r.k.Run(nil)
	lk.ReleaseRetired() // node 0 hands off to node 1
	if lk.Waiters() != 1 || lk.Holder() != 1 {
		t.Fatalf("after the release: waiters=%d holder=%d, want 1 and 1", lk.Waiters(), lk.Holder())
	}
	acq(3)
	if lk.Waiters() != 2 {
		t.Fatalf("after the late Acquire: waiters=%d, want 2", lk.Waiters())
	}
	r.k.Run(nil)
	if len(order) != 4 || order[0] != 0 || order[1] != 1 || order[2] != 2 || order[3] != 3 {
		t.Errorf("grant order = %v, want [0 1 2 3]", order)
	}
}

// grantee is a prebuilt grant completion: it counts its grants.
type grantee struct{ grants int }

func (g *grantee) Act() { g.grants++ }

// BenchmarkLockHandoff64: one op is a lock handoff with 64 queued
// waiters: the holder releases, the oldest waiter's ownership
// transaction runs to completion, and the old holder queues again, so the
// queue stays 64 deep. It must report 0 allocs/op.
func BenchmarkLockHandoff64(b *testing.B) {
	const waiters = 64
	r := newRig(waiters + 1)
	lk := r.lock()
	gs := make([]grantee, waiters+1)
	for i := range gs {
		lk.Acquire(r.nodes[i], &gs[i])
	}
	r.k.Run(nil)
	handoff := func() {
		old := lk.Holder()
		lk.ReleaseRetired()
		r.k.Run(nil)
		lk.Acquire(r.nodes[old], &gs[old])
		r.k.Run(nil)
	}
	for i := 0; i < 2*(waiters+1); i++ { // warm up: the queue wraps twice
		handoff()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		handoff()
	}
	b.StopTimer()
	if lk.Waiters() != waiters {
		b.Fatalf("queue depth %d, want %d", lk.Waiters(), waiters)
	}
}
