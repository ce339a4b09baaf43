package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"latsim/internal/machine"
	"latsim/internal/runner"
)

// jobSpan is what the benchmark records around the calls into each layer
// for one job. The spans are taken from outside the program: around the
// app constructor, machine.New, App.Setup (through timedApp) and the rest
// of Machine.RunContext.
type jobSpan struct {
	label      string
	appNew     time.Duration
	machineNew time.Duration
	appSetup   time.Duration
	run        time.Duration // RunContext minus App.Setup
	exec       time.Duration // the whole ExecFunc call
	counts     kernelCounts
	rt         rtDelta // traced passes only
	prof       []byte  // traced passes only: CPU profile of the run span
}

// kernelCounts are the deterministic counts of one job. Two runs of one
// build must repeat them exactly.
type kernelCounts struct {
	Events         uint64 `json:"events"`
	Scheduled      uint64 `json:"scheduled"`
	ActorScheduled uint64 `json:"actor_scheduled"`
	Advances       uint64 `json:"advances"`
	SimRefs        uint64 `json:"sim_refs"`
}

func countsOf(res *machine.Result) kernelCounts {
	return kernelCounts{
		Events:         res.Kernel.Fired,
		Scheduled:      res.Kernel.Scheduled,
		ActorScheduled: res.Kernel.Actor,
		Advances:       res.Kernel.Advances,
		SimRefs:        simRefs(res),
	}
}

func (c *kernelCounts) add(o kernelCounts) {
	c.Events += o.Events
	c.Scheduled += o.Scheduled
	c.ActorScheduled += o.ActorScheduled
	c.Advances += o.Advances
	c.SimRefs += o.SimRefs
}

// simRefs counts the simulated shared-memory operations of a run.
func simRefs(res *machine.Result) uint64 {
	return res.SharedReads() + res.SharedWrites() + res.Prefetches() + res.Locks() + res.Barriers()
}

// timedApp wraps an App to time its Setup. It costs one extra call per
// simulated process, not per operation. onRun, when set, runs after Setup
// returns and before the first worker does; the run span starts after it.
type timedApp struct {
	machine.App
	onRun    func() error
	setup    time.Duration
	runStart time.Time
	started  bool
}

func (a *timedApp) Setup(m *machine.Machine) error {
	t0 := time.Now()
	err := a.App.Setup(m)
	a.setup = time.Since(t0)
	if err == nil && a.onRun != nil {
		err = a.onRun()
	}
	a.started = err == nil
	a.runStart = time.Now()
	return err
}

// pass is one execution of every job of a workload through a runner
// engine with one worker.
type pass struct {
	traced bool

	mu    sync.Mutex
	spans map[string]*jobSpan
}

// exec is the runner's ExecFunc: a fresh application and machine per
// job, so simulated caches start cold in every job.
func (p *pass) exec(ctx context.Context, j runner.Job) (*machine.Result, error) {
	s := &jobSpan{label: jobLabel(j)}
	t0 := time.Now()
	defer func() {
		s.exec = time.Since(t0)
		p.mu.Lock()
		p.spans[s.label] = s
		p.mu.Unlock()
	}()
	app, err := newApp(j)
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	m, err := machine.New(j.Cfg)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	s.appNew, s.machineNew = t1.Sub(t0), t2.Sub(t1)

	ta := &timedApp{App: app}
	var prof bytes.Buffer
	var rt0 rtSnapshot
	profiling := false
	if p.traced {
		ta.onRun = func() error {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
			profiling = true
			rt0 = readRuntime()
			return nil
		}
		// A run that panics must not leave the profiler on for the next
		// job.
		defer func() {
			if profiling {
				pprof.StopCPUProfile()
			}
		}()
	}
	res, err := m.RunContext(ctx, ta)
	end := time.Now()
	if profiling {
		s.rt = readRuntime().sub(rt0)
		pprof.StopCPUProfile()
		profiling = false
		s.prof = prof.Bytes()
	}
	s.appSetup = ta.setup
	if ta.started {
		s.run = end.Sub(ta.runStart)
	}
	if err != nil {
		return nil, err
	}
	s.counts = countsOf(res)
	return res, nil
}

// passResult is what one pass measured.
type passResult struct {
	wall           time.Duration // pass start to checked results
	cpu            time.Duration // process user+sys CPU over the pass
	peakRSS        float64       // MiB; peak resident set over the pass where the kernel can reset it
	runnerOverhead time.Duration // runner time outside the ExecFunc
	attempted      int
	failed         int
	failures       []string
	spans          []*jobSpan // in submission order; nil entries for jobs that never ran
}

// runSum sums the run spans of the pass.
func (r *passResult) runSum() time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s != nil {
			d += s.run
		}
	}
	return d
}

// setupSum sums the set-up spans of the pass: app constructor,
// machine.New and App.Setup of every job.
func (r *passResult) setupSum() time.Duration {
	var d time.Duration
	for _, s := range r.spans {
		if s != nil {
			d += s.appNew + s.machineNew + s.appSetup
		}
	}
	return d
}

// counts sums the deterministic counts of the pass.
func (r *passResult) counts() kernelCounts {
	var c kernelCounts
	for _, s := range r.spans {
		if s != nil {
			c.add(s.counts)
		}
	}
	return c
}

// runPass submits every job to a fresh runner engine (so nothing is
// memoized across passes), waits for them, and checks each result
// against its expected outputs.
func runPass(jobs []runner.Job, exp expectations, traced bool) (*passResult, error) {
	// Every pass starts from a collected heap whose free pages are back
	// with the kernel, so its peak resident size is its own.
	debug.FreeOSMemory()
	resetPeakRSS()
	p := &pass{traced: traced, spans: make(map[string]*jobSpan)}
	cpu0 := cpuTime()
	start := time.Now()
	eng, err := runner.New(runner.Options{Workers: 1}, p.exec)
	if err != nil {
		return nil, err
	}
	submitted := time.Now()
	tasks := make([]*runner.Task, len(jobs))
	for i, j := range jobs {
		tasks[i] = eng.Submit(context.Background(), j)
	}
	results := make([]*machine.Result, len(jobs))
	errs := make([]error, len(jobs))
	for i, t := range tasks {
		results[i], errs[i] = t.Wait()
	}
	drained := time.Now()
	eng.Close()

	r := &passResult{attempted: len(jobs), spans: make([]*jobSpan, len(jobs))}
	var execSum time.Duration
	for i, j := range jobs {
		label := jobLabel(j)
		r.spans[i] = p.spans[label]
		if s := r.spans[i]; s != nil {
			execSum += s.exec
		}
		err := errs[i]
		if err == nil {
			err = exp.check(label, results[i])
		}
		if err != nil {
			r.failed++
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", label, err))
		}
	}
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	r.peakRSS = peakRSSMB()
	r.runnerOverhead = drained.Sub(submitted) - execSum
	return r, nil
}

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS restarts the kernel's record of the process's peak
// resident set size at its current size, so that peakRSSMB reports the
// peak since the call. Where the kernel does not support it, peakRSSMB
// keeps reporting the peak since the process started.
func resetPeakRSS() {
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return
	}
	// A failed write only means the peak is not reset, which peakRSSMB
	// tolerates.
	_, _ = f.Write([]byte("5"))
	f.Close()
}

// peakRSSMB returns the process's peak resident set size in MiB: since
// the last successful resetPeakRSS, else since the process started.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
