package trace

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"latsim/internal/apps/lu"
	"latsim/internal/config"
	"latsim/internal/cpu"
	"latsim/internal/machine"
	"latsim/internal/mem"
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

// encode serializes t, which may be malformed on purpose: WriteTo
// writes whatever the struct holds.
func encode(t *Trace) []byte {
	var b bytes.Buffer
	if _, err := t.WriteTo(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// header encodes a trace header (empty app name, one process, nbars
// barriers) followed by the given fields, to build inputs whose counts
// claim far more data than follows.
func header(nbars uint32, fields ...any) []byte {
	var b bytes.Buffer
	for _, v := range append([]any{magic, uint32(0), uint32(1), int64(0), uint32(0), nbars}, fields...) {
		binary.Write(&b, binary.LittleEndian, v)
	}
	return b.Bytes()
}

// malformed lists inputs the decoder must refuse. Each once crashed
// either ReadTrace or, once accepted, Replayer.Setup.
func malformed() []struct {
	name string
	data []byte
} {
	read := func(addr mem.Addr) Event { return Event{Kind: cpu.TRead, Addr: addr} }
	one := func(evs ...Event) [][]Event { return [][]Event{evs} }
	return []struct {
		name string
		data []byte
	}{
		// Counts that outrun the input (2^24 pages, 2^32 events, 2^20
		// barriers): fail on the missing bytes, allocating nothing for
		// the claimed counts.
		{"oversized page count", header(0, uint32(1<<24))},
		{"oversized stream length", header(0, uint32(0), uint64(1<<32))},
		{"truncated barrier list", header(1<<20, int32(1), int32(1), int32(1))},
		// Decodable shapes that Setup would trip over.
		{"more locks than lock operations", encode(&Trace{AppName: "malformed", Procs: 1, Locks: 1<<32 - 1, Streams: one()})},
		{"references 1 TiB apart", encode(&Trace{AppName: "malformed", Procs: 1, Streams: one(read(0), read(1<<40))})},
		{"lock id out of range", encode(&Trace{AppName: "malformed", Procs: 1, Locks: 1, Streams: one(Event{Kind: cpu.TLock, Obj: 5})})},
		{"negative page home", encode(&Trace{AppName: "malformed", Procs: 1, PageHomes: map[uint64]int32{0: -3}, Streams: one(read(0))})},
		{"barrier of zero", encode(&Trace{AppName: "malformed", Procs: 1, Barriers: []int32{0}, Streams: one(Event{Kind: cpu.TBarrier})})},
		{"unknown event kind", encode(&Trace{AppName: "malformed", Procs: 1, Streams: one(Event{Kind: cpu.TBarrier + 1})})},
	}
}

func TestReadTraceRejectsGarbage(t *testing.T) {
	if _, err := ReadTrace(bytes.NewReader([]byte("not a trace file"))); err == nil {
		t.Error("garbage accepted")
	}
	if _, err := ReadTrace(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	for _, in := range malformed() {
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

// FuzzReadTrace decodes arbitrary bytes. A decoded trace must set up a
// replay on a matching machine without panicking: ReadTrace owns every
// check Setup relies on.
func FuzzReadTrace(f *testing.F) {
	for _, in := range malformed() {
		f.Add(in.data)
	}
	// One small valid trace (2 KB: locks, barriers, reads and writes),
	// so mutations start from a real shape.
	rec := NewRecorder(lu.New(lu.Scaled(4)))
	m, err := machine.New(cfg4(func(c *config.Config) { c.Procs = 2 }))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := m.Run(rec); err != nil {
		f.Fatal(err)
	}
	f.Add(encode(rec.Trace()))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadTrace(bytes.NewReader(data))
		if err != nil || tr.Procs < 1 || tr.Procs > 16 {
			return
		}
		cfg := config.Default()
		cfg.Procs = tr.Procs
		m, err := machine.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		_ = NewReplayer(tr).Setup(m) // nil or an error; only a panic fails
	})
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
