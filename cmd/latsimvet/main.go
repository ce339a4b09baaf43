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
// Output is vet-style text; -github emits GitHub Actions problem
// annotations (workflow command lines) instead. Standalone runs analyze
// every package afresh; vet mode inherits the go command's action cache.
// `-schemaver-update` refreshes the committed schema fingerprint golden.
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
	githubOut := flag.Bool("github", false, "emit GitHub Actions problem annotations")
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

	diags, err := analysis.Run("", analysis.All(), args...)
	if err != nil {
		fatal(err)
	}
	if *githubOut {
		emitGitHub(diags)
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
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
// full suite-shaped run, so facts flow exactly as in checking mode) and
// rewrites internal/analysis/schemaver_golden.json.
func updateSchemaGolden(patterns []string) error {
	capture := map[string]analysis.SchemaRecord{}
	if _, err := analysis.Run("", []*analysis.Analyzer{analysis.NewSchemaverCapture(capture)}, patterns...); err != nil {
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
