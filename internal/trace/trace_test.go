package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"latsim/internal/apps/lu"
	"latsim/internal/config"
	"latsim/internal/machine"
	"latsim/internal/obs"
)

func record(t *testing.T, cfg config.Config) (*Trace, *machine.Result) {
	t.Helper()
	rec := NewRecorder(lu.New(lu.Scaled(24)))
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(rec)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace(), res
}

func replay(t *testing.T, tr *Trace, cfg config.Config) *machine.Result {
	t.Helper()
	m, err := machine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(NewReplayer(tr))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func cfg4(mut func(*config.Config)) config.Config {
	c := config.Default()
	c.Procs = 4
	if mut != nil {
		mut(&c)
	}
	return c
}

func TestRecordCapturesStreams(t *testing.T) {
	tr, res := record(t, cfg4(nil))
	if tr.Procs != 4 {
		t.Fatalf("procs = %d", tr.Procs)
	}
	if tr.Events() == 0 {
		t.Fatal("no events recorded")
	}
	// Every shared read/write the machine saw must be in the trace.
	var reads, writes uint64
	for _, st := range tr.Streams {
		for _, ev := range st {
			switch ev.Kind {
			case 3: // TRead
				reads++
			case 4: // TWrite
				writes++
			}
		}
	}
	if reads != res.SharedReads() || writes != res.SharedWrites() {
		t.Errorf("trace has %d/%d reads/writes, machine counted %d/%d",
			reads, writes, res.SharedReads(), res.SharedWrites())
	}
	if tr.Locks == 0 || len(tr.Barriers) == 0 {
		t.Error("synchronization objects not recorded")
	}
}

func TestRecordingDoesNotPerturbTiming(t *testing.T) {
	plain, err := machine.New(cfg4(nil))
	if err != nil {
		t.Fatal(err)
	}
	resPlain, err := plain.Run(lu.New(lu.Scaled(24)))
	if err != nil {
		t.Fatal(err)
	}
	_, resRec := record(t, cfg4(nil))
	if resPlain.Elapsed != resRec.Elapsed {
		t.Errorf("recording changed timing: %d vs %d", resPlain.Elapsed, resRec.Elapsed)
	}
}

func TestReplayMatchesReferenceCounts(t *testing.T) {
	tr, rec := record(t, cfg4(nil))
	rep := replay(t, tr, cfg4(nil))
	if rep.SharedReads() != rec.SharedReads() || rep.SharedWrites() != rec.SharedWrites() {
		t.Errorf("replay refs %d/%d != recorded %d/%d",
			rep.SharedReads(), rep.SharedWrites(), rec.SharedReads(), rec.SharedWrites())
	}
	if rep.Locks() != rec.Locks() || rep.Barriers() != rec.Barriers() {
		t.Errorf("replay sync %d/%d != recorded %d/%d",
			rep.Locks(), rep.Barriers(), rec.Locks(), rec.Barriers())
	}
	// Trace-driven timing approximates execution-driven timing on the
	// same configuration (addresses are remapped, so not exact).
	lo, hi := rec.Elapsed*7/10, rec.Elapsed*13/10
	if rep.Elapsed < lo || rep.Elapsed > hi {
		t.Errorf("replay elapsed %d far from recorded %d", rep.Elapsed, rec.Elapsed)
	}
}

func TestReplayUnderDifferentModel(t *testing.T) {
	tr, _ := record(t, cfg4(nil)) // recorded under SC
	sc := replay(t, tr, cfg4(nil))
	rc := replay(t, tr, cfg4(func(c *config.Config) { c.Model = config.RC }))
	if rc.Elapsed >= sc.Elapsed {
		t.Errorf("trace-driven RC (%d) not faster than SC (%d)", rc.Elapsed, sc.Elapsed)
	}
}

func TestReplayWrongProcessCountFails(t *testing.T) {
	tr, _ := record(t, cfg4(nil))
	m, err := machine.New(cfg4(func(c *config.Config) { c.Procs = 8 }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(NewReplayer(tr)); err == nil {
		t.Error("replay with mismatched process count should fail")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	tr, _ := record(t, cfg4(nil))
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.AppName != tr.AppName || got.Procs != tr.Procs || got.Locks != tr.Locks {
		t.Errorf("header mismatch: %+v vs %+v", got, tr)
	}
	if got.Events() != tr.Events() {
		t.Fatalf("events %d != %d", got.Events(), tr.Events())
	}
	for p := range tr.Streams {
		for i := range tr.Streams[p] {
			if got.Streams[p][i] != tr.Streams[p][i] {
				t.Fatalf("stream %d event %d differs: %+v vs %+v",
					p, i, got.Streams[p][i], tr.Streams[p][i])
			}
		}
	}
	// A round-tripped trace replays identically.
	r1 := replay(t, tr, cfg4(nil))
	r2 := replay(t, got, cfg4(nil))
	if r1.Elapsed != r2.Elapsed {
		t.Errorf("round-tripped trace replays differently: %d vs %d", r1.Elapsed, r2.Elapsed)
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	// Short headers whose counts claim far more data than follows: the
	// decoder must fail on the missing bytes without first allocating
	// for the claimed counts (2^24 pages, 2^32 events).
	header := func(npages uint32, events uint64) []byte {
		var b bytes.Buffer
		for _, v := range []any{magic, uint32(0), uint32(1), int64(0), uint32(0), uint32(0), npages} {
			binary.Write(&b, binary.LittleEndian, v)
		}
		if npages == 0 {
			binary.Write(&b, binary.LittleEndian, events)
		}
		return b.Bytes()
	}
	for _, in := range []struct {
		name string
		data []byte
	}{
		{"oversized page count", header(1<<24, 0)},
		{"oversized stream length", header(0, 1<<32)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadTrace(bytes.NewReader(in.data))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: %d-byte input accepted", in.name, len(in.data))
		}
		if d := after.TotalAlloc - before.TotalAlloc; d > 1<<20 {
			t.Errorf("%s: decoding a %d-byte input allocated %d bytes", in.name, len(in.data), d)
		}
	}
}

// TestReplayObsDeterminism replays the same trace twice with the
// observability recorder enabled: the reports — time series, latency
// histograms and per-processor timelines — must be bit-identical.
func TestReplayObsDeterminism(t *testing.T) {
	tr, _ := record(t, cfg4(nil))
	run := func() *obs.Report {
		m, err := machine.New(cfg4(func(c *config.Config) { c.Model = config.RC }))
		if err != nil {
			t.Fatal(err)
		}
		m.EnableObs(obs.Options{Interval: 512})
		res, err := m.Run(NewReplayer(tr))
		if err != nil {
			t.Fatal(err)
		}
		return res.Obs
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Error("replaying the same trace produced different observability reports")
	}
	if len(a.Hists) == 0 || len(a.Tracks) != 4 {
		t.Errorf("report is empty: %d hists, %d tracks", len(a.Hists), len(a.Tracks))
	}
}
