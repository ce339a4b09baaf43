package main

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/dirset"
	"latsim/internal/mem"
	"latsim/internal/memsys"
	"latsim/internal/sim"
	"latsim/internal/stats"
)

// A probe drives one layer through its public functions with a fixed
// amount of work. Each probe runs probeReps times; the report is the
// median time per operation and the median allocations per operation.
// Work the probe needs to set up between timed batches (putting lines
// into the state the timed operation needs) is excluded by timing
// batches, not the whole loop.
type probe struct {
	name string
	run  func(t *probeTimer) error
}

// probeTimer accumulates timed batches of operations.
type probeTimer struct {
	elapsed time.Duration
	mallocs uint64
	ops     int

	start   time.Time
	malloc0 uint64
}

func (t *probeTimer) begin() {
	t.malloc0 = mallocs()
	t.start = time.Now()
}

func (t *probeTimer) end(ops int) {
	t.elapsed += time.Since(t.start)
	t.mallocs += mallocs() - t.malloc0
	t.ops += ops
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

const probeReps = 5

// Pending-queue depths of the two kernel probes: the medians of
// Kernel.Pending() over the runs of paper-fig23 (16) and dirscale-256
// (122), sampled every 1024 events. README.md gives the measurement.
const (
	shallowDepth = 16
	deepDepth    = 122
)

var probes = []probe{
	{"coroutine_switch", probeCoroutine},
	{"kernel_fire.shallow", func(t *probeTimer) error { return probeKernel(t, shallowDepth) }},
	{"kernel_fire.deep", func(t *probeTimer) error { return probeKernel(t, deepDepth) }},
	{"resource_acquire", probeResource},
	{"memsys.local_miss", func(t *probeTimer) error { return probeMiss(t, 0) }},
	{"memsys.remote_clean", func(t *probeTimer) error { return probeMiss(t, 1) }},
	{"memsys.dirty_3hop", probeDirty3Hop},
	{"memsys.upgrade_inv8", probeUpgrade},
	{"dirset.full_map", func(t *probeTimer) error { return probeDirset(t, dirset.FullMap) }},
	{"dirset.limited_pointer", func(t *probeTimer) error { return probeDirset(t, dirset.LimitedPtr) }},
	{"dirset.coarse_vector", func(t *probeTimer) error { return probeDirset(t, dirset.CoarseVector) }},
	{"cpu.dispatch", probeDispatch},
}

// probeResult is one probe's report.
type probeResult struct {
	name        string
	nsPerOp     float64
	allocsPerOp float64
}

func runProbes() ([]probeResult, error) {
	out := make([]probeResult, 0, len(probes))
	for _, p := range probes {
		var ns, allocs []float64
		for rep := 0; rep < probeReps; rep++ {
			runtime.GC()
			t := &probeTimer{}
			if err := p.run(t); err != nil {
				return nil, fmt.Errorf("probe %s: %w", p.name, err)
			}
			ns = append(ns, float64(t.elapsed.Nanoseconds())/float64(t.ops))
			allocs = append(allocs, float64(t.mallocs)/float64(t.ops))
		}
		out = append(out, probeResult{p.name, median(ns), median(allocs)})
	}
	return out, nil
}

// probeCoroutine: one op is a Resume that runs the body to its next
// Yield.
func probeCoroutine(t *probeTimer) error {
	const ops = 200_000
	stop := false
	var c *sim.Coroutine
	c = sim.NewCoroutine(func() {
		for !stop {
			c.Yield()
		}
	})
	c.Resume() // start the body's goroutine outside the timed batch
	t.begin()
	for i := 0; i < ops; i++ {
		c.Resume()
	}
	t.end(ops)
	stop = true
	if c.Resume() {
		return errors.New("coroutine did not finish")
	}
	return nil
}

type nopActor struct{}

func (nopActor) Act() {}

// probeKernel: one op schedules an event and fires the earliest one,
// with depth events kept pending.
func probeKernel(t *probeTimer, depth int) error {
	const ops = 1_000_000
	k := sim.NewKernel()
	task := sim.ActorTask(nopActor{})
	for i := 0; i < depth; i++ {
		k.AtTask(sim.Time(i*7%255), task)
	}
	t.begin()
	for i := 0; i < ops; i++ {
		k.AfterTask(sim.Time(i*13%255+1), task)
		k.Step()
	}
	t.end(ops)
	if k.Pending() != depth {
		return fmt.Errorf("%d events pending, want %d", k.Pending(), depth)
	}
	return nil
}

// probeResource: one op acquires a resource and fires its completion.
func probeResource(t *probeTimer) error {
	const ops = 1_000_000
	k := sim.NewKernel()
	r := sim.NewResource(k, "bus")
	task := sim.ActorTask(nopActor{})
	t.begin()
	for i := 0; i < ops; i++ {
		r.AcquireTask(4, task)
		k.Step()
	}
	t.end(ops)
	if r.Requests() != ops {
		return fmt.Errorf("%d requests, want %d", r.Requests(), ops)
	}
	return nil
}

// memRig is a memory system without processors: a kernel and 16 nodes
// with the paper's configuration.
type memRig struct {
	k     *sim.Kernel
	alloc *mem.Allocator
	nodes []*memsys.Node
}

func newMemRig() *memRig {
	cfg := config.Default()
	r := &memRig{k: sim.NewKernel(), alloc: mem.NewAllocator(cfg.Procs)}
	for i := 0; i < cfg.Procs; i++ {
		r.nodes = append(r.nodes, memsys.NewNode(r.k, i, &cfg, r.alloc, &stats.Proc{}))
	}
	for _, n := range r.nodes {
		n.Connect(r.nodes)
	}
	return r
}

// region allocates lines consecutive lines homed on node home.
func (r *memRig) region(home, lines int) []mem.Addr {
	base := r.alloc.AllocOnNode(lines*mem.LineSize, home)
	out := make([]mem.Addr, lines)
	for i := range out {
		out[i] = base + mem.Addr(i*mem.LineSize)
	}
	return out
}

func (r *memRig) read(node int, a mem.Addr) {
	r.nodes[node].Read(a, func() {})
	r.k.Run(nil)
}

// share gives node a readable copy of a unless it already holds one in
// its primary cache.
func (r *memRig) share(node int, a mem.Addr) {
	if r.nodes[node].ClassifyRead(a) != memsys.ClassPrimary {
		r.read(node, a)
	}
}

// expect reports an error when node's class for reads (or, with write,
// for writes) of any line differs from want: a probe that timed the
// wrong transaction must not report.
func (r *memRig) expect(node int, lines []mem.Addr, write bool, want memsys.Class) error {
	for _, a := range lines {
		got := r.nodes[node].ClassifyRead(a)
		if write {
			got = r.nodes[node].ClassifyWrite(a)
		}
		if got != want {
			return fmt.Errorf("node %d line %#x in class %d, want %d", node, a, got, want)
		}
	}
	return nil
}

func (r *memRig) own(node int, a mem.Addr) {
	r.nodes[node].AcquireOwnership(a, func() {})
	r.k.Run(nil)
}

// probeLines is how many lines the state-preparing probes cycle through:
// few enough to stay resident in the scaled 4 KB secondary cache.
const probeLines = 64

// probeMiss: one op is a demand read by node 0 of a clean line homed on
// node home, run to completion. The lines cycle through a region four
// times the secondary cache, so every read misses.
func probeMiss(t *probeTimer, home int) error {
	const ops = 100_000
	r := newMemRig()
	lines := r.region(home, 4*4096/mem.LineSize)
	if err := r.expect(0, lines, false, memsys.ClassMiss); err != nil {
		return err
	}
	t.begin()
	for i := 0; i < ops; i++ {
		r.read(0, lines[i%len(lines)])
	}
	t.end(ops)
	return nil
}

// probeDirty3Hop: one op is a read by node 0 of a line homed on node 1
// and dirty in node 2's cache: request to the home, forward to the
// owner, reply to the requester.
func probeDirty3Hop(t *probeTimer) error {
	const batches = 1000
	r := newMemRig()
	lines := r.region(1, probeLines)
	for b := 0; b < batches; b++ {
		for _, a := range lines {
			r.own(2, a)
		}
		if err := r.expect(0, lines, false, memsys.ClassMiss); err != nil {
			return err
		}
		t.begin()
		for _, a := range lines {
			r.read(0, a)
		}
		t.end(len(lines))
	}
	return nil
}

// probeUpgrade: one op is an ownership request by node 0 for a line it
// shares with 8 other nodes, run to completion including the 8
// invalidations and their acknowledgements.
func probeUpgrade(t *probeTimer) error {
	const batches = 500
	r := newMemRig()
	lines := r.region(15, probeLines)
	for b := 0; b < batches; b++ {
		for _, a := range lines {
			for n := 0; n <= 8; n++ {
				r.share(n, a)
			}
		}
		if err := r.expect(0, lines, true, memsys.ClassMiss); err != nil {
			return err
		}
		t.begin()
		for _, a := range lines {
			r.own(0, a)
		}
		t.end(len(lines))
	}
	return nil
}

// probeDirset: one op is one directory entry's sharer set at 256 nodes
// going through a sharing episode: 8 sharers spread over the machine
// are added, the invalidation walk visits the represented set, and the
// set is cleared.
func probeDirset(t *probeTimer, org dirset.Org) error {
	const ops = 200_000
	cfg := config.Default()
	s := dirset.New(org, 256, cfg.DirPointers, cfg.DirCoarseness)
	visited := 0
	visit := func(int) { visited++ }
	t.begin()
	for i := 0; i < ops; i++ {
		for j := 0; j < 8; j++ {
			s.Add((i + j*37) & 255)
		}
		s.ForEach(visit)
		s.Clear()
	}
	t.end(ops)
	if visited < 8*ops {
		return fmt.Errorf("the walks visited %d sharers, want at least %d", visited, 8*ops)
	}
	return nil
}

// probeDispatch: one processor with one worker alternates Compute(1) and
// a primary-cache-hit Read; one op is one Env call dispatched by the
// processor.
func probeDispatch(t *probeTimer) error {
	const ops = 200_000
	cfg := config.Default()
	cfg.Procs = 1
	k := sim.NewKernel()
	alloc := mem.NewAllocator(cfg.Procs)
	st := &stats.Proc{}
	node := memsys.NewNode(k, 0, &cfg, alloc, st)
	node.Connect([]*memsys.Node{node})
	p := cpu.NewProcessor(k, &cfg, node, st)
	a := alloc.Alloc(mem.LineSize)
	p.AddWorker(0, 1, func(e *cpu.Env) {
		e.Read(a) // the first read misses and fills the caches
		t.begin()
		for i := 0; i < ops/2; i++ {
			e.Compute(1)
			e.Read(a)
		}
		t.end(ops)
	})
	p.Start()
	k.Run(nil)
	if !p.Done() {
		return errors.New("the worker did not finish")
	}
	return nil
}
