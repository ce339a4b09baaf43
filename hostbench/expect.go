package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"

	"latsim/internal/machine"
	"latsim/internal/runner"
	"latsim/internal/stats"
)

// jobExpect is the simulated output of one job that the benchmark checks
// for identity. The simulator is deterministic, so any difference means
// the program changed what it simulates.
type jobExpect struct {
	Elapsed    uint64            `json:"elapsed_cycles"`
	Buckets    map[string]uint64 `json:"bucket_cycles"` // summed over processors
	Reads      uint64            `json:"shared_reads"`
	Writes     uint64            `json:"shared_writes"`
	Prefetches uint64            `json:"prefetches"`
	Invals     uint64            `json:"invals_sent"`
	Overflows  uint64            `json:"dir_overflows"`
}

func expectOf(res *machine.Result) jobExpect {
	e := jobExpect{
		Elapsed:    uint64(res.Elapsed),
		Buckets:    make(map[string]uint64, stats.NumBuckets),
		Reads:      res.SharedReads(),
		Writes:     res.SharedWrites(),
		Prefetches: res.Prefetches(),
		Invals:     res.InvalsSent(),
		Overflows:  res.DirOverflows(),
	}
	for b := stats.Bucket(0); b < stats.NumBuckets; b++ {
		e.Buckets[b.String()] = res.Totals(func(p *stats.Proc) uint64 { return uint64(p.Time[b]) })
	}
	return e
}

// diff lists the fields in which got differs from e.
func (e jobExpect) diff(got jobExpect) []string {
	var out []string
	field := func(name string, want, have uint64) {
		if want != have {
			out = append(out, fmt.Sprintf("%s %d, want %d", name, have, want))
		}
	}
	field("elapsed_cycles", e.Elapsed, got.Elapsed)
	names := make([]string, 0, len(e.Buckets))
	for b := range e.Buckets {
		names = append(names, b)
	}
	for b := range got.Buckets {
		if _, ok := e.Buckets[b]; !ok {
			names = append(names, b)
		}
	}
	sort.Strings(names)
	for _, b := range names {
		field("bucket_cycles."+b, e.Buckets[b], got.Buckets[b])
	}
	field("shared_reads", e.Reads, got.Reads)
	field("shared_writes", e.Writes, got.Writes)
	field("prefetches", e.Prefetches, got.Prefetches)
	field("invals_sent", e.Invals, got.Invals)
	field("dir_overflows", e.Overflows, got.Overflows)
	return out
}

// expectations maps a job label to its expected outputs for one input
// seed.
type expectations map[string]jobExpect

// check reports an error when res differs from the job's expected
// outputs, or when the job has none recorded.
func (x expectations) check(label string, res *machine.Result) error {
	want, ok := x[label]
	if !ok {
		return fmt.Errorf("no expected outputs recorded")
	}
	if d := want.diff(expectOf(res)); len(d) > 0 {
		return fmt.Errorf("simulated outputs differ: %s", strings.Join(d, "; "))
	}
	return nil
}

// expectFile is the layout of expected.json: input seed -> job label ->
// expected outputs.
type expectFile struct {
	Inputs map[string]expectations `json:"inputs"`
}

//go:embed expected.json
var expectedJSON []byte

// loadExpectations returns the recorded outputs for one input seed.
func loadExpectations(appSeed int64) (expectations, error) {
	var f expectFile
	if err := json.Unmarshal(expectedJSON, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	x, ok := f.Inputs[strconv.FormatInt(appSeed, 10)]
	if !ok {
		return nil, fmt.Errorf("expected.json: no outputs recorded for input seed %d", appSeed)
	}
	return x, nil
}

// record simulates every job of every workload once per input seed and
// writes their outputs to path, in the layout loadExpectations reads.
func record(path string) error {
	f := expectFile{Inputs: make(map[string]expectations)}
	for _, s := range inputSeeds {
		x := make(expectations)
		for _, w := range workloads {
			for _, ac := range w.cfgs() {
				j := newJob(ac, s)
				res, err := simulate(j)
				if err != nil {
					return err
				}
				x[jobLabel(j)] = expectOf(res)
			}
		}
		f.Inputs[strconv.FormatInt(s, 10)] = x
	}
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// simulate runs one job to completion outside any runner.
func simulate(j runner.Job) (*machine.Result, error) {
	app, err := newApp(j)
	if err != nil {
		return nil, err
	}
	m, err := machine.New(j.Cfg)
	if err != nil {
		return nil, err
	}
	res, err := m.Run(app)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", jobLabel(j), err)
	}
	return res, nil
}
