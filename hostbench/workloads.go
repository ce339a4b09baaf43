package main

import (
	"fmt"
	"math/rand"

	"latsim/internal/apps/lu"
	"latsim/internal/apps/mp3d"
	"latsim/internal/apps/pthor"
	"latsim/internal/config"
	"latsim/internal/dirset"
	"latsim/internal/machine"
	"latsim/internal/runner"
)

// workload is one benchmark input: a fixed set of simulation jobs taken
// from the paper's figure configurations. README.md records why each one
// was chosen and which layers it is meant to load.
type workload struct {
	name string
	cfgs func() []appConfig
}

// appConfig is one (application, machine configuration) pair.
type appConfig struct {
	app string
	cfg config.Config
}

var workloads = []workload{
	{
		// The 9 unique jobs of Figures 2+3: the reproduction path.
		name: "paper-fig23",
		cfgs: func() []appConfig {
			nocache := config.Default()
			nocache.CacheShared = false
			rc := config.Default()
			rc.Model = config.RC
			return crossApps(nocache, config.Default(), rc)
		},
	},
	{
		// LU at 256 procs with a 4-pointer directory: a deep event queue
		// and overflow broadcasts.
		name: "dirscale-256",
		cfgs: func() []appConfig {
			cfg := config.Default()
			cfg.Procs = 256
			cfg.DirOrg = dirset.LimitedPtr
			cfg.DirPointers = 4
			return []appConfig{{"LU", cfg}}
		},
	},
	{
		// Figure 6's RC+prefetch with 4 contexts: 64 live coroutines,
		// context switches, busy write and prefetch buffers.
		name: "tolerate-mc",
		cfgs: func() []appConfig {
			cfg := config.Default()
			cfg.Model = config.RC
			cfg.Prefetch = true
			cfg.Contexts = 4
			cfg.SwitchPenalty = 4
			return crossApps(cfg)
		},
	},
}

// appNames lists the paper's benchmarks in its order.
var appNames = []string{"MP3D", "LU", "PTHOR"}

func crossApps(cfgs ...config.Config) []appConfig {
	var out []appConfig
	for _, app := range appNames {
		for _, cfg := range cfgs {
			out = append(out, appConfig{app, cfg})
		}
	}
	return out
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputSeeds are the application seeds whose outputs expected.json
// records: 0 keeps the paper's seeds (the default input), 7 is held out
// for checking that a claimed gain does not depend on one input.
var inputSeeds = []int64{0, 7}

// jobs builds the workload's jobs with the given application seed, in
// an order permuted by the benchmark seed.
func (w workload) jobs(seed, appSeed int64) []runner.Job {
	cfgs := w.cfgs()
	out := make([]runner.Job, len(cfgs))
	for i, p := range rand.New(rand.NewSource(seed)).Perm(len(cfgs)) {
		out[i] = newJob(cfgs[p], appSeed)
	}
	return out
}

func newJob(ac appConfig, appSeed int64) runner.Job {
	return runner.Job{App: ac.app, Scale: "small", Seed: appSeed, Cfg: ac.cfg}
}

// jobLabel names a job in expectations and error messages. The
// configuration name omits the processor count, so it is appended.
func jobLabel(j runner.Job) string {
	return fmt.Sprintf("%s/%s/p%d", j.App, j.Cfg.Name(), j.Cfg.Procs)
}

// newApp builds a fresh application instance with the small-scale
// parameters the experiment harness uses for the paper's figures.
func newApp(j runner.Job) (machine.App, error) {
	prefetch := j.Cfg.Prefetch
	switch j.App {
	case "MP3D":
		p := mp3d.Scaled(2000, 2)
		if j.Seed != 0 {
			p.Seed = j.Seed
		}
		p.Prefetch = prefetch
		return mp3d.New(p), nil
	case "LU":
		p := lu.Scaled(96)
		if j.Seed != 0 {
			p.Seed = j.Seed
		}
		p.Prefetch = prefetch
		return lu.New(p), nil
	case "PTHOR":
		p := pthor.Default()
		p.Circuit.Gates = 3000
		p.Circuit.Depth = 12
		p.Cycles = 2
		if j.Seed != 0 {
			p.Circuit.Seed = j.Seed
		}
		p.Prefetch = prefetch
		return pthor.New(p), nil
	}
	return nil, fmt.Errorf("unknown app %q", j.App)
}
