package cpu

import (
	"latsim/internal/mem"
	"latsim/internal/msync"
	"latsim/internal/sim"
)

// Env is the interface an application process uses to interact with the
// simulated machine, in the style of the Tango reference generator: the
// process runs native Go code and submits every shared-memory reference,
// synchronization operation, and block of computation to the simulator,
// blocking until the architecture model completes it.
//
// Every operation yields to the simulator — native code between two
// operations executes at the simulated completion time of the first, which
// the applications rely on when they poll shared Go state (PTHOR's task
// queues). Compute blocks are cheap regardless: the processor completes
// them through the kernel's synchronous fast path, so an uncontended
// compute block costs no kernel event and no allocation (see
// Processor.delayThen).
type Env struct {
	c      *Context
	pid    int
	nprocs int
}

// ID returns the global process id (0..NumProcs-1). With multiple hardware
// contexts the process count is Procs*Contexts.
func (e *Env) ID() int { return e.pid }

// NumProcs returns the total number of application processes.
func (e *Env) NumProcs() int { return e.nprocs }

// NodeID returns the processing node this process runs on.
func (e *Env) NodeID() int { return e.c.p.node.ID() }

// Now returns the current simulated time. Between operations it reads as
// the completion time of the previous operation, so microbenchmarks can
// measure per-operation latencies.
func (e *Env) Now() sim.Time { return e.c.p.k.Now() }

// TraceKind identifies an operation in a captured reference trace.
type TraceKind uint8

// Trace operation kinds (stable encoding for serialized traces).
const (
	TCompute TraceKind = iota
	TPFCompute
	TSpin
	TRead
	TWrite
	TPrefetch
	TPrefetchExcl
	TLock
	TUnlock
	TBarrier
)

// TraceFn observes every operation a process submits (Tango's reference
// stream). Lock and bar are non-nil for synchronization operations.
type TraceFn func(pid int, kind TraceKind, addr mem.Addr, n int, lock *msync.Lock, bar *msync.Barrier)

// trace reports one operation to the installed observer, at the moment the
// application issues it.
func (e *Env) trace(k TraceKind, addr mem.Addr, n int, lock *msync.Lock, bar *msync.Barrier) {
	if tr := e.c.p.trace; tr != nil {
		tr(e.pid, k, addr, n, lock, bar)
	}
}

// submit hands the operation to the processor and blocks the process until
// the simulator has executed it. If the run ends first (Processor.Stop),
// submit does not return: the worker is unwound.
func (e *Env) submit(o op) {
	e.c.cur = o
	e.c.co.Yield()
}

// Compute models n cycles of instruction execution that do not reference
// shared data (private data and instruction fetches hit their caches).
func (e *Env) Compute(n int) {
	if n <= 0 {
		return
	}
	e.trace(TCompute, 0, n, nil, nil)
	e.submit(op{kind: opCompute, cycles: n})
}

// PFCompute models n cycles of extra instructions executed only to decide
// and address prefetches; it is accounted as prefetch overhead.
func (e *Env) PFCompute(n int) {
	if n <= 0 {
		return
	}
	e.trace(TPFCompute, 0, n, nil, nil)
	e.submit(op{kind: opPFCompute, cycles: n})
}

// SpinWait models one iteration of a software polling loop: n cycles of
// busy spinning, followed (on multiple-context processors) by a voluntary
// switch hint so sibling contexts can run. Use inside spin loops on
// application data structures such as task queues.
func (e *Env) SpinWait(n int) {
	if n <= 0 {
		n = 1
	}
	e.trace(TSpin, 0, n, nil, nil)
	e.submit(op{kind: opSpin, cycles: n})
}

// Read performs a shared-data read. The process blocks until the read
// completes (reads are blocking on the modeled processor).
func (e *Env) Read(a mem.Addr) {
	e.trace(TRead, a, 0, nil, nil)
	e.submit(op{kind: opRead, addr: a})
}

// Write performs a shared-data write. Under SC the process stalls until
// the write retires; under RC it continues once the write is buffered.
func (e *Env) Write(a mem.Addr) {
	e.trace(TWrite, a, 0, nil, nil)
	e.submit(op{kind: opWrite, addr: a})
}

// ReadRange reads every cache line in [a, a+bytes).
func (e *Env) ReadRange(a mem.Addr, bytes int) {
	if bytes <= 0 {
		return
	}
	for l := mem.LineOf(a); l <= mem.LineOf(a+mem.Addr(bytes)-1); l++ {
		e.Read(mem.AddrOf(l))
	}
}

// WriteRange writes every cache line in [a, a+bytes).
func (e *Env) WriteRange(a mem.Addr, bytes int) {
	if bytes <= 0 {
		return
	}
	for l := mem.LineOf(a); l <= mem.LineOf(a+mem.Addr(bytes)-1); l++ {
		e.Write(mem.AddrOf(l))
	}
}

// Prefetch issues a non-binding read-shared prefetch for a's line.
func (e *Env) Prefetch(a mem.Addr) {
	e.trace(TPrefetch, a, 0, nil, nil)
	e.submit(op{kind: opPrefetch, addr: a})
}

// PrefetchExcl issues a read-exclusive prefetch, acquiring ownership so a
// subsequent write retires quickly.
func (e *Env) PrefetchExcl(a mem.Addr) {
	e.trace(TPrefetchExcl, a, 0, nil, nil)
	e.submit(op{kind: opPrefetch, addr: a, excl: true})
}

// PrefetchRange issues read prefetches covering [a, a+bytes).
func (e *Env) PrefetchRange(a mem.Addr, bytes int, excl bool) {
	if bytes <= 0 {
		return
	}
	for l := mem.LineOf(a); l <= mem.LineOf(a+mem.Addr(bytes)-1); l++ {
		if excl {
			e.PrefetchExcl(mem.AddrOf(l))
		} else {
			e.Prefetch(mem.AddrOf(l))
		}
	}
}

// Lock acquires lk (an acquire access: the process blocks until granted).
func (e *Env) Lock(lk *msync.Lock) {
	e.trace(TLock, 0, 0, lk, nil)
	e.submit(op{kind: opLock, lock: lk})
}

// Unlock releases lk (a release access: under RC it waits, inside the
// write buffer, for all previous writes and their invalidations).
func (e *Env) Unlock(lk *msync.Lock) {
	e.trace(TUnlock, 0, 0, lk, nil)
	e.submit(op{kind: opUnlock, lock: lk})
}

// Barrier waits until every participant arrives at b.
func (e *Env) Barrier(b *msync.Barrier) {
	e.trace(TBarrier, 0, 0, nil, b)
	e.submit(op{kind: opBarrier, bar: b})
}
