package analysis

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// runGolden checks one analyzer against one fixture package: every
// `// want` comment must be matched by a diagnostic and vice versa.
func runGolden(t *testing.T, a *Analyzer, pattern string) {
	t.Helper()
	problems, err := CheckExpectations("", []*Analyzer{a}, pattern)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range problems {
		t.Error(p)
	}
}

func TestPoolsafetyGolden(t *testing.T) {
	runGolden(t, NewPoolsafety(), "./testdata/src/poolsafety/a")
}

func TestNilsafeGolden(t *testing.T) {
	runGolden(t, NewNilsafe(
		"latsim/internal/analysis/testdata/src/nilsafe/hooks.Recorder",
		"latsim/internal/analysis/testdata/src/nilsafe/hooks.Tracer",
	), "./testdata/src/nilsafe/hooks")
}

func TestSimdetGolden(t *testing.T) {
	runGolden(t, NewSimdet("latsim/internal/analysis/testdata/src/simdet/sched"),
		"./testdata/src/simdet/sched")
}

// TestHookpureCrossPackageFacts is the facts round trip across a
// package boundary: helper's global write reaches the hook method in
// relay only through helper's exported FnEffects fact, so the matched
// want on the call site proves the export and the import.
func TestHookpureCrossPackageFacts(t *testing.T) {
	runGolden(t, NewHookpure("latsim/internal/analysis/testdata/src/hookpure/relay.Recorder"),
		"./testdata/src/hookpure/relay")
}

// TestHookpureEmptyMarker pins the marker grammar: a suppression with
// no reason is itself a diagnostic and suppresses nothing. (Direct
// assertions, not want comments — the marker's own line cannot also
// carry an expectation comment.)
func TestHookpureEmptyMarker(t *testing.T) {
	diags, err := Run("", []*Analyzer{NewHookpure("latsim/internal/analysis/testdata/src/hookpure/empty.Recorder")},
		"./testdata/src/hookpure/empty")
	if err != nil {
		t.Fatal(err)
	}
	var gotEmpty, gotAlloc bool
	for _, d := range diags {
		if strings.Contains(d.Message, "marker requires a reason") {
			gotEmpty = true
		}
		if strings.Contains(d.Message, "(empty.Recorder).Tick allocates") {
			gotAlloc = true
		}
	}
	if !gotEmpty || !gotAlloc {
		t.Fatalf("want an empty-marker diagnostic and an unsuppressed allocation diagnostic, got %v", diags)
	}
}

func TestHookpureGolden(t *testing.T) {
	runGolden(t, NewHookpure("latsim/internal/analysis/testdata/src/hookpure/hooks.Recorder"),
		"./testdata/src/hookpure/hooks")
}

// TestSchemaverRegression drives the full fingerprint workflow: capture
// a golden from variant a, verify a is clean against it, then verify
// variant b — the same version constant over a renamed serialized field
// — is caught, while its exempt-field change contributes nothing.
func TestSchemaverRegression(t *testing.T) {
	anchors := func(variant string) []SchemaAnchor {
		pkg := "latsim/internal/analysis/testdata/src/schemaver/" + variant
		return []SchemaAnchor{{
			Pkg:   pkg,
			Const: "SchemaVersion",
			Key:   "store.SchemaVersion",
			Roots: []string{pkg + ".Doc"},
		}}
	}
	capture := map[string]SchemaRecord{}
	diags, err := Run("", []*Analyzer{NewSchemaverConfig(anchors("a"), SchemaGolden{}, capture)},
		"./testdata/src/schemaver/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("capture run reported: %v", diags)
	}
	rec, ok := capture["store.SchemaVersion"]
	if !ok || rec.Version != 3 || rec.Fingerprint == "" {
		t.Fatalf("capture = %+v", capture)
	}
	golden := SchemaGolden{Anchors: capture}

	diags, err = Run("", []*Analyzer{NewSchemaverConfig(anchors("a"), golden, nil)},
		"./testdata/src/schemaver/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Fatalf("unchanged shape must be clean against its own golden, got %v", diags)
	}

	runGolden(t, NewSchemaverConfig(anchors("b"), golden, nil), "./testdata/src/schemaver/b")
}

// TestFactsDocRoundTrip pins the .vetx document encoding: object and
// package facts of several analyzers survive serialization with their
// analyzer namespaces and origin packages intact.
func TestFactsDocRoundTrip(t *testing.T) {
	pf := newPkgFacts()
	eff := &FnEffects{
		Allocs:       []EffectSite{{Pos: "x.go:3", What: "append"}},
		MutRecv:      true,
		EscapeParams: []int{1},
	}
	if err := pf.set("hookpure", "Recorder.Tick", eff); err != nil {
		t.Fatal(err)
	}
	shapes := &SchemaShapes{Types: map[string]TypeShape{
		"Doc": {Display: "store.Doc", Fields: []FieldShape{{Name: "ID", Type: "int"}}},
	}}
	if err := pf.set("schemaver", "", shapes); err != nil {
		t.Fatal(err)
	}
	doc := newFactsDoc()
	doc.Packages["latsim/internal/obs"] = pf

	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeFactsDoc(data)
	if err != nil {
		t.Fatal(err)
	}
	var gotEff FnEffects
	if !got.Packages["latsim/internal/obs"].get("hookpure", "Recorder.Tick", &gotEff) {
		t.Fatal("object fact lost in round trip")
	}
	if !reflect.DeepEqual(&gotEff, eff) {
		t.Fatalf("object fact round trip: got %+v want %+v", gotEff, *eff)
	}
	var gotShapes SchemaShapes
	if !got.Packages["latsim/internal/obs"].get("schemaver", "", &gotShapes) {
		t.Fatal("package fact lost in round trip")
	}
	if !reflect.DeepEqual(&gotShapes, shapes) {
		t.Fatalf("package fact round trip: got %+v want %+v", gotShapes, *shapes)
	}
	// An empty document must decode, and a wrong schema must not.
	if _, err := decodeFactsDoc(nil); err != nil {
		t.Fatal(err)
	}
	if _, err := decodeFactsDoc([]byte(`{"schema":999}`)); err == nil {
		t.Fatal("wrong-schema document decoded silently")
	}
}

// TestSuiteCleanOnTree is the live gate: the production suite must
// report zero findings on the whole module (same check CI runs via
// cmd/latsimvet).
func TestSuiteCleanOnTree(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	diags, err := Run("", All(), "latsim/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestWantParsing pins the expectation-comment grammar.
func TestWantParsing(t *testing.T) {
	lit, rest, err := scanString("`a.b` \"c\\\"d\"")
	if err != nil || lit != "a.b" || strings.TrimSpace(rest) != "\"c\\\"d\"" {
		t.Fatalf("raw scan: %q %q %v", lit, rest, err)
	}
	lit, rest, err = scanString(strings.TrimSpace(rest))
	if err != nil || lit != `c"d` || rest != "" {
		t.Fatalf("quoted scan: %q %q %v", lit, rest, err)
	}
}
