package main

import (
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"latsim/internal/runner"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"latsim/internal/sim.(*Kernel).pop", "latsim/internal/sim.(*Kernel).Step"}, "sim.kernel"},
		{[]string{"latsim/internal/sim.(*event).before", "latsim/internal/sim.(*Kernel).push"}, "sim.kernel"},
		{[]string{"latsim/internal/sim.(*Pool[go.shape.struct { latsim/internal/memsys.n *latsim/internal/memsys.Node }]).Get"}, "sim.pool"},
		{[]string{"latsim/internal/sim.(*Resource).acquire", "latsim/internal/memsys.(*Node).ReadTask"}, "sim.resource"},
		{[]string{"runtime.chansend", "runtime.chansend1", "latsim/internal/sim.(*Coroutine).Yield", "latsim/internal/cpu.(*Env).submit"}, "sim.coroutine"},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, "sim.coroutine"},
		{[]string{"latsim/internal/sim.(*Coroutine).Resume.func1"}, "sim.coroutine"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "latsim/internal/memsys.(*Node).ReadTask"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime.gopark", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.gc"},
		{[]string{"runtime.memmove", "latsim/internal/memsys.(*writeBuffer).drain"}, "memsys"},
		{[]string{"runtime.mapaccess2_fast64", "latsim/internal/memsys.(*Node).entry"}, "memsys"},
		{[]string{"latsim/internal/dirset.(*ptrSet).ForEach", "latsim/internal/memsys.(*Node).dirWrite"}, "dirset"},
		{[]string{"latsim/internal/mem.(*Allocator).Home"}, "mem"},
		{[]string{"latsim/internal/msync.(*Lock).Acquire"}, "msync"},
		{[]string{"latsim/internal/stats.(*Proc).Add", "latsim/internal/cpu.(*Processor).account"}, "stats"},
		{[]string{"latsim/internal/cpu.(*Processor).step"}, "cpu"},
		{[]string{"math.Sqrt", "latsim/internal/apps/mp3d.(*App).move"}, "apps"},
		{[]string{"latsim/internal/apps/pthor.(*App).evaluate"}, "apps"},
		{[]string{"latsim/internal/machine.(*Machine).RunContext.func2", "latsim/internal/sim.(*Kernel).Run"}, "machine"},
		{[]string{"latsim/internal/obs/span.(*Tracer).Start"}, "hooks"},
		{[]string{"latsim/internal/obs.(*Recorder).Txn"}, "hooks"},
		{[]string{"latsim/internal/check.(*Checker).Err"}, "hooks"},
		{[]string{"latsim/internal/config.Consistency.Buffered"}, "other"},
		{[]string{"runtime/pprof.(*profileBuilder).addCPUData", "runtime/pprof.profileWriter", "runtime.goexit"}, "unattributed"},
		{nil, "unattributed"},
	}
	for _, c := range cases {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%q) = %s, want %s", c.stack, got, c.want)
		}
	}
}

var (
	tracedOnce sync.Once
	tracedRes  *passResult
	tracedErr  error
)

// tracedShortPass runs one traced pass of two short jobs once per test
// binary.
func tracedShortPass(t *testing.T) *passResult {
	t.Helper()
	tracedOnce.Do(func() {
		j := shortJob()
		lu := j
		lu.App = "LU"
		exp, err := loadExpectations(j.Seed)
		if err != nil {
			tracedErr = err
			return
		}
		tracedRes, tracedErr = runPass([]runner.Job{j, lu}, exp, true)
	})
	if tracedErr != nil {
		t.Fatal(tracedErr)
	}
	if tracedRes.failed != 0 {
		t.Fatalf("traced pass failed: %v", tracedRes.failures)
	}
	return tracedRes
}

// TestFoldReconciles folds the profiles of a traced pass. Every layer
// the fold produces must be reported, the sampled CPU time must be close
// to the run span (the run is one thread; the profile rate is 100 Hz),
// and the reported layers plus unattributed must sum to machine.run_s.
func TestFoldReconciles(t *testing.T) {
	p := tracedShortPass(t)
	known := make(map[string]bool)
	for _, l := range foldLayers {
		known[l] = true
	}
	var sampled, run float64
	for _, s := range p.spans {
		folded, err := foldProfile(s.prof)
		if err != nil {
			t.Fatal(err)
		}
		for l, v := range folded {
			sampled += v
			if !known[l] {
				t.Errorf("%s: fold produced layer %q, which is not reported", s.label, l)
			}
		}
		run += s.run.Seconds()
	}
	if sampled < 0.5*run || sampled > 1.5*run {
		t.Fatalf("the profiles sampled %.3f s of CPU over %.3f s of run spans", sampled, run)
	}

	rep := &report{Metrics: make(map[string]metric)}
	if err := perLayer(rep, p, p); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range foldLayers {
		sum += rep.Metrics[l+".self_s"].Value
	}
	if got := rep.Metrics["machine.run_s"].Value; got != run || math.Abs(sum-run) > 1e-9*run {
		t.Fatalf("folded layers sum to %.12f s, machine.run_s is %.12f s, run spans %.12f s", sum, got, run)
	}
}

// TestAttributeKeepsSamples checks that the gap between the sampled CPU
// and the run span goes to unattributed, whichever its sign, and is not
// spread over the layers.
func TestAttributeKeepsSamples(t *testing.T) {
	for _, c := range []struct{ run, want float64 }{
		{1.0, 0.2},  // sampling missed time
		{0.7, -0.1}, // other threads added CPU
	} {
		layers := map[string]float64{"sim.kernel": 0.5, "memsys": 0.3, "unattributed": 0.05}
		attribute(layers, c.run)
		if layers["sim.kernel"] != 0.5 || layers["memsys"] != 0.3 || math.Abs(layers["unattributed"]-c.want) > 1e-12 {
			t.Errorf("run %.1f s: layers %v, want sim.kernel 0.5, memsys 0.3, unattributed %.1f", c.run, layers, c.want)
		}
	}
}

// TestBenchmarkJSONMatches checks that BENCHMARK.json names exactly the
// workloads and metrics the benchmark reports, with the same units.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metricDef struct {
		Name, Unit string
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if strings.Join(names, ",") != strings.Join(ours, ",") {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, ours)
	}

	p := tracedShortPass(t)
	e2e := &report{Metrics: make(map[string]metric)}
	e2e.Attempted = 1
	endToEnd(e2e, []*passResult{p})
	layer := &report{Metrics: make(map[string]metric)}
	if err := perLayer(layer, p, p); err != nil {
		t.Fatal(err)
	}
	for _, pr := range probes {
		layer.set("probe."+pr.name+".ns_per_op", 0, "ns/op")
		layer.set("probe."+pr.name+".allocs_per_op", 0, "allocs/op")
	}
	compare := func(kind string, defs []metricDef, rep *report) {
		want := make(map[string]string)
		for _, d := range defs {
			want[d.Name] = d.Unit
		}
		var missing, extra []string
		for name, m := range rep.Metrics {
			unit, ok := want[name]
			switch {
			case !ok:
				extra = append(extra, name)
			case unit != m.Unit:
				t.Errorf("%s %s: unit %q in BENCHMARK.json, %q reported", kind, name, unit, m.Unit)
			}
		}
		for name := range want {
			if _, ok := rep.Metrics[name]; !ok {
				missing = append(missing, name)
			}
		}
		sort.Strings(missing)
		sort.Strings(extra)
		if len(missing)+len(extra) > 0 {
			t.Errorf("%s: in BENCHMARK.json only %v; reported only %v", kind, missing, extra)
		}
	}
	compare("end_to_end", spec.EndToEnd, e2e)
	compare("per_layer", spec.PerLayer, layer)
}
