package runner

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"latsim/internal/config"
	"latsim/internal/machine"
	"latsim/internal/stats"
)

// richResult builds a Result exercising every serialized field,
// including the Proc run-length histograms the custom stats marshalers
// carry.
func richResult() *machine.Result {
	p1 := &stats.Proc{SharedReads: 120, SharedWrites: 30, ReadMisses: 7, Locks: 2, Barriers: 4}
	p1.Add(stats.Busy, 5000)
	p1.Add(stats.ReadStall, 800)
	p1.RecordRun(11)
	p1.RecordRun(22)
	p2 := &stats.Proc{SharedReads: 90, Prefetches: 5}
	p2.Add(stats.Busy, 4000)
	p2.Add(stats.SyncStall, 1200)
	p2.RecordRun(17)
	return &machine.Result{
		AppName:     "fake",
		Cfg:         config.Default(),
		Elapsed:     6400,
		Breakdown:   stats.Aggregate([]*stats.Proc{p1, p2}, 6400),
		Procs:       []*stats.Proc{p1, p2},
		SharedBytes: 4096,
		Events:      123456,
	}
}

func TestCacheRoundTrip(t *testing.T) {
	c, err := OpenCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(0)
	key := j.Key()
	if _, ok := c.Load(key); ok {
		t.Fatal("empty cache reported a hit")
	}
	want := richResult()
	if err := c.Store(key, j, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Load(key)
	if !ok {
		t.Fatal("stored entry not found")
	}
	// Exact round trip: compare canonical encodings and derived stats.
	wb, _ := json.Marshal(want)
	gb, _ := json.Marshal(got)
	if string(wb) != string(gb) {
		t.Fatalf("round trip changed the result:\n  %s\n  %s", wb, gb)
	}
	if got.MedianRunLength() != want.MedianRunLength() ||
		got.ReadHitRate() != want.ReadHitRate() ||
		got.ProcessorUtilization() != want.ProcessorUtilization() {
		t.Fatal("derived statistics changed across the round trip")
	}
}

func TestCacheSchemaMismatchIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	j := testJob(0)
	key := j.Key()
	if err := c.Store(key, j, richResult()); err != nil {
		t.Fatal(err)
	}
	// Rewrite the entry with a stale schema version.
	path := filepath.Join(dir, key+".json")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var e cacheEntry
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatal(err)
	}
	e.Schema = SchemaVersion - 1
	b, _ = json.Marshal(e)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(key); ok {
		t.Fatal("stale-schema entry served as a hit")
	}
}

func TestCacheCorruptFileIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testJob(0).Key()
	if err := os.WriteFile(filepath.Join(dir, key+".json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Load(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
}

// TestRunnerWarmCache proves the cold-run/warm-run contract at the
// runner level: a second runner over the same directory executes
// nothing and returns identical results.
func TestRunnerWarmCache(t *testing.T) {
	dir := t.TempDir()
	var execs atomic.Int64
	newRunner := func(trace *safeBuilder) *Runner {
		opts := Options{Workers: 2, CacheDir: dir}
		if trace != nil {
			opts.Trace = trace
		}
		r, err := New(opts, func(_ context.Context, j Job) (*machine.Result, error) {
			execs.Add(1)
			return richResult(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	jobs := []Job{testJob(0), testJob(1)}

	cold := newRunner(nil)
	coldRes, err := cold.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 2 || cold.Metrics().CacheHits != 0 {
		t.Fatalf("cold run: execs=%d metrics=%+v", execs.Load(), cold.Metrics())
	}

	var trace safeBuilder
	warm := newRunner(&trace)
	warmRes, err := warm.RunAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 2 {
		t.Fatalf("warm run re-simulated: %d execs", execs.Load())
	}
	if m := warm.Metrics(); m.CacheHits != 2 || m.Executed != 0 {
		t.Fatalf("warm metrics: %+v", m)
	}
	if !strings.Contains(trace.String(), "cached fake") {
		t.Fatalf("warm trace missing cache-hit lines:\n%s", trace.String())
	}
	for i := range jobs {
		a, _ := json.Marshal(coldRes[i])
		b, _ := json.Marshal(warmRes[i])
		if string(a) != string(b) {
			t.Fatalf("job %d: warm result differs from cold", i)
		}
	}
}

// FuzzCacheLoad feeds arbitrary bytes to Cache.Load as the entry for a
// key. A bad entry must be a miss, never a panic, and an accepted entry
// re-encodes to an equal result: storing it and loading it back gives
// the same encoding. Seeds are the round-trip, stale-schema and corrupt
// entries of the table tests above.
func FuzzCacheLoad(f *testing.F) {
	j := testJob(0)
	key := j.Key()
	good, err := json.Marshal(cacheEntry{Schema: SchemaVersion, Key: key, Job: j, Result: richResult()})
	if err != nil {
		f.Fatal(err)
	}
	stale, _ := json.Marshal(cacheEntry{Schema: SchemaVersion - 1, Key: key, Job: j, Result: richResult()})
	wrongKey, _ := json.Marshal(cacheEntry{Schema: SchemaVersion, Key: "other", Job: j, Result: richResult()})
	noResult, _ := json.Marshal(cacheEntry{Schema: SchemaVersion, Key: key, Job: j})
	for _, b := range [][]byte{good, stale, wrongKey, noResult, []byte("{torn"), []byte("null"), nil} {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		c, err := OpenCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, key+".json"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		res, ok := c.Load(key)
		if !ok {
			return
		}
		enc, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("accepted result does not re-encode: %v", err)
		}
		if err := c.Store(key, j, res); err != nil {
			t.Fatalf("accepted result does not store: %v", err)
		}
		again, ok := c.Load(key)
		if !ok {
			t.Fatal("re-stored entry is a miss")
		}
		if enc2, _ := json.Marshal(again); string(enc) != string(enc2) {
			t.Fatalf("round trip changed the result:\n  %s\n  %s", enc, enc2)
		}
	})
}
