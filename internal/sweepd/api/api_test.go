package api

import (
	"strings"
	"testing"
)

func TestParseSpecExperiment(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"experiment": "fig2", "priority": 3, "name": "nightly"}`))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Experiment != "fig2" || spec.Priority != 3 || spec.Name != "nightly" {
		t.Fatalf("parsed %+v", spec)
	}
}

func TestParseSpecJobs(t *testing.T) {
	spec, err := ParseSpec([]byte(`{"jobs": [
		{"app": "LU", "config": {"Procs": 4}},
		{"app": "MP3D"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Jobs) != 2 || spec.Jobs[0].App != "LU" || string(spec.Jobs[0].Config) != `{"Procs": 4}` {
		t.Fatalf("parsed %+v", spec)
	}
}

func TestParseSpecRejects(t *testing.T) {
	cases := []struct {
		raw  string
		want string // substring of the error
	}{
		{`{}`, "need an experiment name or a job list"},
		{`{"experiment": "fig2", "jobs": [{"app": "LU"}]}`, "mutually exclusive"},
		{`{"experimnt": "fig2"}`, "unknown field"},
		{`{"experiment": "fig2"} {"experiment": "fig3"}`, "trailing data"},
		{`{"jobs": [{"config": {}}]}`, "job 0: missing app"},
		{`not json`, "sweep spec"},
	}
	for _, c := range cases {
		_, err := ParseSpec([]byte(c.raw))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpec(%s) err = %v, want %q", c.raw, err, c.want)
		}
	}
}

// FuzzParseSpec decodes arbitrary bytes as a sweep submission. It must
// never panic, and an accepted spec holds the structural invariants
// ParseSpec promises: exactly one of an experiment and a job list, an
// app on every job, and a span rate only with obs.
func FuzzParseSpec(f *testing.F) {
	for _, raw := range []string{
		`{"experiment": "fig2", "priority": 3, "name": "nightly"}`,
		`{"jobs": [{"app": "LU", "config": {"Procs": 4}}, {"app": "MP3D"}]}`,
		`{}`,
		`{"experiment": "fig2", "jobs": [{"app": "LU"}]}`,
		`{"experimnt": "fig2"}`,
		`{"experiment": "fig2"} {"experiment": "fig3"}`,
		`{"jobs": [{"config": {}}]}`,
		`not json`,
		`{"experiment": "fig2", "obs": true, "span_rate": 0.5}`,
	} {
		f.Add([]byte(raw))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		spec, err := ParseSpec(raw)
		if err != nil {
			return
		}
		if (spec.Experiment != "") == (len(spec.Jobs) > 0) {
			t.Fatalf("accepted spec has experiment %q and %d jobs", spec.Experiment, len(spec.Jobs))
		}
		for i, j := range spec.Jobs {
			if j.App == "" {
				t.Fatalf("accepted spec has job %d without an app", i)
			}
		}
		if spec.SpanRate != 0 && !spec.Obs {
			t.Fatalf("accepted spec has span_rate %v without obs", spec.SpanRate)
		}
	})
}
