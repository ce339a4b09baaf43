// latsimvet runs the repo's custom static-analysis suite (poolsafety,
// nilsafe, simdet, hookpure, schemaver — see
// internal/analysis) over the simulator tree.
//
// Standalone:
//
//	go run ./cmd/latsimvet ./...
//
// As a go vet tool (covers test files too, via the unitchecker
// protocol):
//
//	go build -o /tmp/latsimvet ./cmd/latsimvet
//	go vet -vettool=/tmp/latsimvet ./...
//
// Output formats: the default is vet-style text; -json emits a JSON
// array, -sarif a SARIF 2.1.0 document (code-scanning upload), -github
// GitHub Actions problem annotations (workflow command lines).
//
// Standalone runs cache per-package results keyed on each package's
// export-data hash (see -cache-dir, -nocache, -stats); `-schemaver-update`
// refreshes the committed schema fingerprint golden.
//
// Exit status is nonzero when any analyzer reports a finding.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"latsim/internal/analysis"
)

func main() {
	version := flag.String("V", "", "internal: go vet version handshake (-V=full)")
	flagsJSON := flag.Bool("flags", false, "internal: go vet flag discovery handshake")
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	sarifOut := flag.Bool("sarif", false, "emit diagnostics as a SARIF 2.1.0 document")
	githubOut := flag.Bool("github", false, "emit GitHub Actions problem annotations")
	cacheDir := flag.String("cache-dir", analysis.DefaultCacheDir(), "per-package result cache directory (standalone mode)")
	noCache := flag.Bool("nocache", false, "disable the per-package result cache")
	stats := flag.Bool("stats", false, "print analyzed/cached package counts to stderr")
	schemaUpdate := flag.Bool("schemaver-update", false, "recompute schema fingerprints and rewrite the committed golden")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: latsimvet [flags] [packages]\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	// The go command probes `-V=full` to build a cache key for the tool.
	if *version != "" {
		// The go command parses this exact shape to derive a tool buildID
		// for its action cache; the hash of the executable makes rebuilt
		// tools invalidate cached vet results.
		name := filepath.Base(os.Args[0])
		sum, err := selfDigest()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s version devel comments-go-here buildID=%02x\n", name, sum)
		return
	}
	// `go vet` also probes `-flags` for the analyzer flags the tool
	// accepts; this suite has none.
	if *flagsJSON {
		fmt.Println("[]")
		return
	}

	args := flag.Args()

	// `go vet -vettool` invokes the tool once per package with a single
	// *.cfg argument describing the compilation unit.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		diags, err := analysis.RunVetCfg(args[0], analysis.All())
		if err != nil {
			fatal(err)
		}
		for _, d := range diags {
			fmt.Fprintf(os.Stderr, "%s: %s\n", d.Pos, d.Message)
		}
		if len(diags) > 0 {
			os.Exit(2)
		}
		return
	}

	if len(args) == 0 {
		args = []string{"./..."}
	}

	if *schemaUpdate {
		if err := updateSchemaGolden(args); err != nil {
			fatal(err)
		}
		return
	}

	runner := &analysis.Runner{
		Analyzers: analysis.All(),
	}
	if !*noCache && *cacheDir != "" {
		runner.CacheDir = *cacheDir
		if sum, err := selfDigest(); err == nil {
			// Rebuilding the tool (new analyzers, changed heuristics)
			// must invalidate every cached result.
			runner.Salt = fmt.Sprintf("%x", sum)
		}
	}
	diags, st, err := runner.Run(args...)
	if err != nil {
		fatal(err)
	}
	switch {
	case *jsonOut:
		emitJSON(diags)
	case *sarifOut:
		emitSARIF(diags)
	case *githubOut:
		emitGitHub(diags)
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "latsimvet: %d packages (%d analyzed, %d cached), %d findings\n",
			st.Packages, st.Analyzed, st.Cached, len(diags))
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "latsimvet: %v\n", err)
	os.Exit(1)
}

// selfDigest hashes the running executable.
func selfDigest() ([sha256.Size]byte, error) {
	var zero [sha256.Size]byte
	exe, err := os.Executable()
	if err != nil {
		return zero, err
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return zero, err
	}
	return sha256.Sum256(data), nil
}

// updateSchemaGolden recomputes every schema anchor's fingerprint (a
// full no-cache suite-shaped run, so facts flow exactly as in checking
// mode) and rewrites internal/analysis/schemaver_golden.json.
func updateSchemaGolden(patterns []string) error {
	capture := map[string]analysis.SchemaRecord{}
	runner := &analysis.Runner{Analyzers: []*analysis.Analyzer{analysis.NewSchemaverCapture(capture)}}
	if _, _, err := runner.Run(patterns...); err != nil {
		return err
	}
	if len(capture) == 0 {
		return fmt.Errorf("no schema anchors in %v; run over the full tree (./...)", patterns)
	}
	out, err := json.MarshalIndent(analysis.SchemaGolden{Anchors: capture}, "", "\t")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	dir, err := moduleDir()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, filepath.FromSlash(analysis.SchemaverGoldenPath))
	if err := os.WriteFile(path, out, 0o666); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "latsimvet: wrote %s (%d anchors)\n", path, len(capture))
	return nil
}

// moduleDir locates the module root via the go command.
func moduleDir() (string, error) {
	cmd := exec.Command("go", "list", "-m", "-f", "{{.Dir}}")
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("go list -m: %v\n%s", err, stderr.Bytes())
	}
	return strings.TrimSpace(out.String()), nil
}

// jsonDiag is the -json output element.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func emitJSON(diags []analysis.Diagnostic) {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			Analyzer: d.Analyzer,
			File:     d.Pos.Filename,
			Line:     d.Pos.Line,
			Column:   d.Pos.Column,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	_ = enc.Encode(out)
}

// emitGitHub prints GitHub Actions workflow commands: one `::error`
// annotation per diagnostic, surfaced inline on pull-request diffs.
func emitGitHub(diags []analysis.Diagnostic) {
	for _, d := range diags {
		file := d.Pos.Filename
		if wd, err := os.Getwd(); err == nil {
			if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
				file = filepath.ToSlash(rel)
			}
		}
		// Workflow-command escaping: %, CR and LF in the message.
		msg := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace(d.Message)
		fmt.Printf("::error file=%s,line=%d,col=%d,title=latsimvet/%s::%s\n",
			file, d.Pos.Line, d.Pos.Column, d.Analyzer, msg)
	}
}

// SARIF 2.1.0 subset: one run, one rule per analyzer, one result per
// diagnostic. Enough for GitHub code scanning ingestion.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}
type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}
type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}
type sarifDriver struct {
	Name  string      `json:"name"`
	Rules []sarifRule `json:"rules"`
}
type sarifRule struct {
	ID   string    `json:"id"`
	Desc sarifText `json:"shortDescription"`
}
type sarifText struct {
	Text string `json:"text"`
}
type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifText       `json:"message"`
	Locations []sarifLocation `json:"locations"`
}
type sarifLocation struct {
	Physical sarifPhysical `json:"physicalLocation"`
}
type sarifPhysical struct {
	Artifact sarifArtifact `json:"artifactLocation"`
	Region   sarifRegion   `json:"region"`
}
type sarifArtifact struct {
	URI string `json:"uri"`
}
type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn"`
}

func emitSARIF(diags []analysis.Diagnostic) {
	var rules []sarifRule
	for _, a := range analysis.All() {
		rules = append(rules, sarifRule{ID: a.Name, Desc: sarifText{Text: a.Doc}})
	}
	results := make([]sarifResult, 0, len(diags))
	wd, _ := os.Getwd()
	for _, d := range diags {
		uri := d.Pos.Filename
		if wd != "" {
			if rel, err := filepath.Rel(wd, uri); err == nil && !strings.HasPrefix(rel, "..") {
				uri = filepath.ToSlash(rel)
			}
		}
		results = append(results, sarifResult{
			RuleID:  d.Analyzer,
			Level:   "error",
			Message: sarifText{Text: d.Message},
			Locations: []sarifLocation{{Physical: sarifPhysical{
				Artifact: sarifArtifact{URI: uri},
				Region:   sarifRegion{StartLine: d.Pos.Line, StartColumn: d.Pos.Column},
			}}},
		})
	}
	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "latsimvet", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "\t")
	_ = enc.Encode(log)
}
