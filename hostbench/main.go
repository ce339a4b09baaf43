// Command hostbench measures the host time latsim takes to run simulated
// experiments drawn from the paper's figure configurations, end to end
// and per layer. See README.md for the workloads, the metrics and how to
// run it.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hostbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: paper-fig23, dirscale-256 or tolerate-mc")
	seed := fs.Int64("seed", 0, "workload seed: the order in which the jobs are submitted")
	input := fs.Int64("input-seed", 0, "application seed of every job: 0 keeps the paper's seeds, 7 is the held-out input")
	seconds := fs.Float64("seconds", 40, "measuring time: as many whole passes as fit are run, at least one")
	trace := fs.Int("trace", 0, "1 = one untraced and one traced pass, reporting per-layer metrics")
	countsDir := fs.String("counts-dir", "", "directory where runs of one build record their deterministic counts and check them against each other (empty = off)")
	recordPath := fs.String("record", "", "simulate every job of every workload for every input seed, write the expected outputs to this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *recordPath != "" {
		if err := record(*recordPath); err != nil {
			fmt.Fprintln(stderr, "hostbench:", err)
			return 1
		}
		return 0
	}
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "hostbench: -trace must be 0 or 1")
		return 2
	}
	rep, err := measure(w, *seed, *input, runOpts{
		seconds:   *seconds,
		traced:    *trace == 1,
		countsDir: *countsDir,
		log:       stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	for _, m := range rep.order {
		fmt.Fprintf(stdout, "%-44s %16.6f %s\n", m, rep.Metrics[m].Value, rep.Metrics[m].Unit)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "hostbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

type runOpts struct {
	seconds   float64
	traced    bool
	countsDir string
	log       io.Writer
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	order []string
}

func (r *report) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	if _, ok := r.Metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{value, unit}
}

// measure runs one workload: untraced passes, or, when traced, one
// untraced and one traced pass followed by the layer probes.
func measure(w workload, seed, appSeed int64, o runOpts) (*report, error) {
	jobs := w.jobs(seed, appSeed)
	exp, err := loadExpectations(appSeed)
	if err != nil {
		return nil, err
	}
	// A traced run's traced pass comes second on even seeds and first on
	// odd ones, so that warm-up does not always fall on the same side of
	// trace.overhead_frac.
	tracedPass := 1
	if seed%2 != 0 {
		tracedPass = 0
	}

	// Passes run until the next one would end past --seconds, judged by
	// the mean pass so far; a traced run has exactly two.
	var passes []*passResult
	start := time.Now()
	for {
		p, err := runPass(jobs, exp, o.traced && len(passes) == tracedPass)
		if err != nil {
			return nil, err
		}
		passes = append(passes, p)
		elapsed := time.Since(start).Seconds()
		if o.traced {
			if len(passes) == 2 {
				break
			}
		} else if elapsed+elapsed/float64(len(passes)) > o.seconds {
			break
		}
	}

	rep := &report{Metrics: make(map[string]metric)}
	for i, p := range passes {
		fmt.Fprintf(o.log, "hostbench: %s pass %d: wall %.3f s, cpu %.3f s, setup %.6f s, run %.3f s, peak rss %.1f MB\n",
			w.name, i+1, p.wall.Seconds(), p.cpu.Seconds(), p.setupSum().Seconds(), p.runSum().Seconds(), p.peakRSS)
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		for _, f := range p.failures {
			fmt.Fprintln(o.log, "hostbench: failed:", f)
		}
	}
	countsErr := checkCounts(passes)
	if countsErr == nil && o.countsDir != "" && rep.Failed == 0 {
		countsErr = checkRecordedCounts(o.countsDir, w.name, appSeed, jobCounts(passes[0]))
	}
	if countsErr != nil {
		fmt.Fprintln(o.log, "hostbench: deterministic counts differ:", countsErr)
	}
	rep.Correct = rep.Failed == 0 && countsErr == nil

	if !o.traced {
		endToEnd(rep, passes)
		return rep, nil
	}
	if err := perLayer(rep, passes[1-tracedPass], passes[tracedPass]); err != nil {
		return nil, err
	}
	results, err := runProbes()
	if err != nil {
		return nil, err
	}
	for _, p := range results {
		rep.set("probe."+p.name+".ns_per_op", p.nsPerOp, "ns/op")
		rep.set("probe."+p.name+".allocs_per_op", p.allocsPerOp, "allocs/op")
	}
	return rep, nil
}

// endToEnd fills the metrics a user of the simulator sees, as medians
// over the run's passes.
func endToEnd(rep *report, passes []*passResult) {
	var wall, setup, cpu, rate, rss []float64
	for _, p := range passes {
		wall = append(wall, p.wall.Seconds())
		setup = append(setup, p.setupSum().Seconds())
		cpu = append(cpu, p.cpu.Seconds())
		rss = append(rss, p.peakRSS)
		rate = append(rate, float64(p.counts().SimRefs)/p.runSum().Seconds())
	}
	rep.set("wall_s", median(wall), "s")
	rep.set("setup_s", median(setup), "s")
	rep.set("sim_refs_per_s", median(rate), "1/s")
	rep.set("cpu_s", median(cpu), "s")
	rep.set("peak_rss_mb", median(rss), "MB")
	rep.set("ok_frac", float64(rep.Attempted-rep.Failed)/float64(rep.Attempted), "frac")
}

// perLayer fills the per-layer metrics from the traced pass, and the
// tracing overhead from its untraced twin.
func perLayer(rep *report, untraced, traced *passResult) error {
	var appNew, machineNew, appSetup, run time.Duration
	layers := make(map[string]float64)
	var rt rtDelta
	for _, s := range traced.spans {
		if s == nil {
			continue
		}
		appNew += s.appNew
		machineNew += s.machineNew
		appSetup += s.appSetup
		run += s.run
		rt.add(s.rt)
		if s.prof == nil {
			continue // the job failed before its run span
		}
		folded, err := foldProfile(s.prof)
		if err != nil {
			return fmt.Errorf("%s: %w", s.label, err)
		}
		for l, v := range folded {
			layers[l] += v
		}
	}
	attribute(layers, run.Seconds())
	rep.set("apps.new_s", appNew.Seconds(), "s")
	rep.set("machine.new_s", machineNew.Seconds(), "s")
	rep.set("apps.setup_s", appSetup.Seconds(), "s")
	rep.set("machine.run_s", run.Seconds(), "s")
	rep.set("runner.overhead_s", traced.runnerOverhead.Seconds(), "s")
	for _, l := range foldLayers {
		rep.set(l+".self_s", layers[l], "s")
	}

	c := traced.counts()
	rep.set("sim.kernel.events", float64(c.Events), "count")
	rep.set("sim.kernel.scheduled", float64(c.Scheduled), "count")
	rep.set("sim.kernel.actor_scheduled", float64(c.ActorScheduled), "count")
	rep.set("sim.kernel.advances", float64(c.Advances), "count")
	rep.set("apps.sim_refs", float64(c.SimRefs), "count")
	rep.set("sim.kernel.events_per_ref", float64(c.Events)/float64(c.SimRefs), "events/ref")
	rep.set("sim.kernel.host_ns_per_event", float64(run.Nanoseconds())/float64(c.Events), "ns")

	rep.set("runtime.alloc_mb", float64(rt.allocBytes)/(1<<20), "MB")
	rep.set("runtime.alloc_objects", float64(rt.allocObjects), "count")
	rep.set("runtime.gc_cycles", float64(rt.gcCycles), "count")
	rep.set("runtime.gc_cpu_s", rt.gcCPU, "s")
	rep.set("runtime.sched_latency_p50_us", rt.schedQuantile(0.50)*1e6, "us")
	rep.set("runtime.sched_latency_p99_us", rt.schedQuantile(0.99)*1e6, "us")

	rep.set("trace.overhead_frac", traced.wall.Seconds()/untraced.wall.Seconds()-1, "frac")
	return nil
}

// jobCounts returns the deterministic counts of a pass's jobs by label.
func jobCounts(p *passResult) map[string]kernelCounts {
	out := make(map[string]kernelCounts)
	for _, s := range p.spans {
		if s != nil {
			out[s.label] = s.counts
		}
	}
	return out
}

// checkCounts reports an error when two passes of the run disagree on
// any job's deterministic counts.
func checkCounts(passes []*passResult) error {
	want := jobCounts(passes[0])
	for _, p := range passes[1:] {
		if err := compareCounts(want, jobCounts(p)); err != nil {
			return err
		}
	}
	return nil
}

func compareCounts(want, got map[string]kernelCounts) error {
	var errs []error
	for label, w := range want {
		if g, ok := got[label]; ok && g != w {
			errs = append(errs, fmt.Errorf("%s: %+v, earlier %+v", label, g, w))
		}
	}
	return errors.Join(errs...)
}
