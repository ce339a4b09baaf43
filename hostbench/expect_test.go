package main

import (
	"context"
	"strings"
	"testing"

	"latsim/internal/config"
	"latsim/internal/core"
	"latsim/internal/runner"
)

// shortJob is the cheapest job of the benchmark: MP3D under RC with
// prefetching and 4 contexts, about 0.1 s of host time.
func shortJob() runner.Job {
	cfg := config.Default()
	cfg.Model = config.RC
	cfg.Prefetch = true
	cfg.Contexts = 4
	cfg.SwitchPenalty = 4
	return newJob(appConfig{"MP3D", cfg}, inputSeeds[0])
}

func TestRecordedExpectationPasses(t *testing.T) {
	for _, s := range inputSeeds {
		exp, err := loadExpectations(s)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range workloads {
			for _, ac := range w.cfgs() {
				if _, ok := exp[jobLabel(newJob(ac, s))]; !ok {
					t.Errorf("input seed %d: no expected outputs for %s", s, jobLabel(newJob(ac, s)))
				}
			}
		}
	}
	j := shortJob()
	exp, err := loadExpectations(j.Seed)
	if err != nil {
		t.Fatal(err)
	}
	r, err := runPass([]runner.Job{j}, exp, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.attempted != 1 || r.failed != 0 {
		t.Fatalf("attempted %d, failed %d (%v); want 1, 0", r.attempted, r.failed, r.failures)
	}
}

// TestHarnessAgrees runs the short job and an LU job through the
// experiment harness's own exec function and checks its outputs against
// the expectations the benchmark's jobs are held to. The benchmark builds
// its applications itself, with a copy of the harness's small-scale
// parameters; if the two drift apart, this fails.
func TestHarnessAgrees(t *testing.T) {
	mp := shortJob()
	lu := mp
	lu.App = "LU"
	exp, err := loadExpectations(mp.Seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []runner.Job{mp, lu} {
		res, err := core.Exec(context.Background(), j)
		if err != nil {
			t.Fatal(err)
		}
		if err := exp.check(jobLabel(j), res); err != nil {
			t.Errorf("harness run differs from the benchmark's expectation: %v", err)
		}
	}
}

// TestPerturbedExpectationFails runs one short job and shows that an
// expectation differing from its outputs in any checked field is
// reported as a failed job, naming the field.
func TestPerturbedExpectationFails(t *testing.T) {
	j := shortJob()
	label := jobLabel(j)
	exp, err := loadExpectations(j.Seed)
	if err != nil {
		t.Fatal(err)
	}
	want := exp[label]

	bad := clone(want)
	bad.Elapsed++
	r, err := runPass([]runner.Job{j}, expectations{label: bad}, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.failed != 1 || len(r.failures) != 1 || !strings.Contains(r.failures[0], "elapsed_cycles") {
		t.Fatalf("perturbed elapsed_cycles: failed %d, failures %v", r.failed, r.failures)
	}

	res, err := simulate(j)
	if err != nil {
		t.Fatal(err)
	}
	if err := (expectations{label: want}).check(label, res); err != nil {
		t.Fatalf("recorded expectation: %v", err)
	}
	perturb := map[string]func(*jobExpect){
		"elapsed_cycles":      func(e *jobExpect) { e.Elapsed-- },
		"bucket_cycles.busy":  func(e *jobExpect) { e.Buckets["busy"]++ },
		"bucket_cycles.write": func(e *jobExpect) { e.Buckets["write"] += 3 },
		"shared_reads":        func(e *jobExpect) { e.Reads++ },
		"shared_writes":       func(e *jobExpect) { e.Writes-- },
		"prefetches":          func(e *jobExpect) { e.Prefetches++ },
		"invals_sent":         func(e *jobExpect) { e.Invals++ },
		"dir_overflows":       func(e *jobExpect) { e.Overflows++ },
	}
	for field, mut := range perturb {
		bad := clone(want)
		mut(&bad)
		err := (expectations{label: bad}).check(label, res)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("perturbed %s: check returned %v", field, err)
		}
	}
	if err := (expectations{}).check(label, res); err == nil {
		t.Error("a job without recorded outputs passed the check")
	}
}

func clone(e jobExpect) jobExpect {
	c := e
	c.Buckets = make(map[string]uint64, len(e.Buckets))
	for k, v := range e.Buckets {
		c.Buckets[k] = v
	}
	return c
}

func TestJobOrder(t *testing.T) {
	w, err := findWorkload("paper-fig23")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{-3, 0, 1, 2, 99} {
		a, b := w.jobs(seed, 7), w.jobs(seed, 7)
		if len(a) != 9 {
			t.Fatalf("seed %d: %d jobs, want 9", seed, len(a))
		}
		seen := make(map[string]bool)
		for i := range a {
			if jobLabel(a[i]) != jobLabel(b[i]) || a[i].Seed != 7 {
				t.Fatalf("seed %d: job %d differs between calls or has seed %d", seed, i, a[i].Seed)
			}
			seen[jobLabel(a[i])] = true
		}
		if len(seen) != 9 {
			t.Fatalf("seed %d: %d distinct jobs, want 9", seed, len(seen))
		}
	}
}
