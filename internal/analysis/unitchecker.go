package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"strings"
)

// modulePathPrefix identifies this module's packages in vet-mode
// configs: only they are analyzed for facts (stdlib and third-party
// dependencies get an empty facts file and no analysis).
const modulePathPrefix = "latsim"

// VetCfg is the configuration file the go command hands a -vettool for
// each package unit (the x/tools unitchecker protocol). Only the fields
// this driver consumes are declared.
type VetCfg struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunVetCfg analyzes the single package unit described by the .cfg file
// written by `go vet -vettool`. Facts ride the protocol's .vetx files:
// dependency facts are read from PackageVetx and this unit's exported
// facts are written to VetxOutput (the go command schedules dependency
// units first and caches their outputs, so vet mode gets the same
// interprocedural view as the standalone driver). The tool must write
// VetxOutput even when it has nothing to say, or the go command reports
// the run as failed.
func RunVetCfg(cfgPath string, analyzers []*Analyzer) ([]Diagnostic, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg VetCfg
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, fmt.Errorf("analysis: parsing %s: %v", cfgPath, err)
	}
	inModule := strings.HasPrefix(basePkgPath(cfg.ImportPath), modulePathPrefix)

	// The .vetx document maps origin package path -> facts. Each unit
	// re-exports everything it imported plus its own facts, so facts
	// reach transitive dependents even though the go command only hands
	// a unit its *direct* imports' vetx files.
	writeFacts := func(doc *factsDoc) error {
		if cfg.VetxOutput == "" {
			return nil
		}
		enc, err := json.MarshalIndent(doc, "", "\t")
		if err != nil {
			return err
		}
		return os.WriteFile(cfg.VetxOutput, enc, 0o666)
	}

	// Out-of-module units carry no facts and need no analysis, in
	// facts-only and diagnostic mode alike.
	if !inModule {
		return nil, writeFacts(newFactsDoc())
	}
	if cfg.Compiler != "gc" && cfg.Compiler != "" {
		return nil, fmt.Errorf("analysis: unsupported compiler %q", cfg.Compiler)
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, writeFacts(newFactsDoc())
			}
			return nil, err
		}
		files = append(files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		f, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{
		Importer: importMapper{
			imp: importer.ForCompiler(fset, "gc", lookup),
			m:   cfg.ImportMap,
		},
	}
	tpkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, writeFacts(newFactsDoc())
		}
		return nil, fmt.Errorf("analysis: type-checking %s: %v", cfg.ImportPath, err)
	}

	env := newFactEnv()
	for _, vetx := range cfg.PackageVetx {
		data, err := os.ReadFile(vetx)
		if err != nil {
			continue // no facts for this dependency
		}
		doc, err := decodeFactsDoc(data)
		if err != nil {
			continue // e.g. a stale placeholder from an older tool
		}
		for path, pf := range doc.Packages {
			env.imported[basePkgPath(path)] = pf
		}
	}

	diags, err := runPackage(&Package{
		Path:  cfg.ImportPath,
		Dir:   cfg.Dir,
		Fset:  fset,
		Files: files,
		Pkg:   tpkg,
		Info:  info,
	}, analyzers, env)
	if err != nil {
		return nil, err
	}
	doc := newFactsDoc()
	for path, pf := range env.imported {
		doc.Packages[path] = pf
	}
	doc.Packages[basePkgPath(cfg.ImportPath)] = env.out
	if err := writeFacts(doc); err != nil {
		return nil, err
	}
	if cfg.VetxOnly {
		return nil, nil // dependency unit: facts only
	}
	Sort(diags)
	return diags, nil
}

// factsSchema versions the .vetx facts document; bump on any layout
// change so stale documents are refused, not misread.
const factsSchema = 1

// factsDoc is the on-disk .vetx layout: facts keyed by origin package,
// the analyzed unit's own plus re-exports of everything it imported.
type factsDoc struct {
	Schema   int                  `json:"schema"`
	Packages map[string]*pkgFacts `json:"packages"`
}

func newFactsDoc() *factsDoc {
	return &factsDoc{Schema: factsSchema, Packages: map[string]*pkgFacts{}}
}

func decodeFactsDoc(data []byte) (*factsDoc, error) {
	doc := newFactsDoc()
	if len(data) == 0 {
		return doc, nil
	}
	if err := json.Unmarshal(data, doc); err != nil {
		return nil, fmt.Errorf("analysis: decoding facts document: %v", err)
	}
	if doc.Schema != factsSchema {
		return nil, fmt.Errorf("analysis: facts document schema %d, want %d", doc.Schema, factsSchema)
	}
	if doc.Packages == nil {
		doc.Packages = map[string]*pkgFacts{}
	}
	return doc, nil
}

// basePkgPath strips the go command's test-variant suffix
// ("pkg [pkg.test]" -> "pkg") so package-keyed configuration matches
// the variants `go vet` feeds through the unitchecker protocol.
func basePkgPath(p string) string {
	if i := strings.Index(p, " ["); i >= 0 {
		return p[:i]
	}
	return p
}
