//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// Coroutine couples an application process (native Go code) to the
// simulation kernel, Tango-style: exactly one of the kernel and the
// process runs at any instant, so simulation remains deterministic.
//
// The kernel side calls Resume to hand control to the process; the process
// runs native code until it needs the simulator (a memory reference, a
// synchronization operation, consuming compute cycles) and calls Yield,
// handing control back. Payload (which operation is requested) travels in
// structures owned by the caller, not through the coroutine itself.
//
// A handoff is a direct coroutine switch (iter.Pull hands the thread
// from one goroutine to the other without going through the scheduler),
// not a pair of channel operations: it costs under a third as much
// (BenchmarkCoroutineSwitch) and allocates nothing.
//
// Stop ends a process that has not finished. The process's pending Yield
// does not return: it unwinds the body with a sentinel panic that the
// coroutine recovers, so the body's deferred calls run and the process's
// goroutine exits. The body goroutine exists from NewCoroutine on, so
// every coroutine must be run to completion or stopped.
type Coroutine struct {
	next     func() (struct{}, bool)
	stop     func()
	yield    func(struct{}) bool
	finished bool
	panicVal any
}

// stopped is the sentinel Yield panics with to unwind a stopped body.
type stopped struct{}

// NewCoroutine creates a coroutine for body. The body does not start
// running until the first Resume.
func NewCoroutine(body func()) *Coroutine {
	c := &Coroutine{}
	c.next, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopped); !ok {
					c.panicVal = r
				}
			}
		}()
		body()
	})
	return c
}

// Resume transfers control to the process and blocks until it yields or
// finishes. It reports whether the process is still alive (i.e. yielded
// rather than returned). A panic inside the process body is re-raised
// here, on the kernel's goroutine.
func (c *Coroutine) Resume() (alive bool) {
	if c.finished {
		panic("sim: Resume on finished coroutine")
	}
	_, alive = c.next()
	if !alive {
		c.finish()
	}
	return alive
}

// Yield transfers control back to the kernel and blocks until the next
// Resume. Must only be called from inside the coroutine body. If the
// coroutine is stopped instead of resumed, Yield does not return; it
// unwinds the body.
func (c *Coroutine) Yield() {
	if !c.yield(struct{}{}) {
		panic(stopped{})
	}
}

// Stop ends the process: a body that never started never runs, and one
// suspended in Yield is unwound, running its deferred calls; a panic they
// raise is re-raised here as in Resume. Its goroutine has exited when
// Stop returns. Stop on a finished coroutine does nothing; Resume after
// Stop panics.
func (c *Coroutine) Stop() {
	if c.finished {
		return
	}
	c.stop()
	c.finish()
}

// finish marks the coroutine finished and re-raises a panic of its body
// on the caller's goroutine.
func (c *Coroutine) finish() {
	c.finished = true
	if c.panicVal != nil {
		panic(fmt.Sprintf("sim: process panicked: %v", c.panicVal))
	}
}

// Finished reports whether the body has returned or been stopped.
func (c *Coroutine) Finished() bool { return c.finished }
