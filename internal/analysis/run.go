package analysis

import (
	"fmt"
	"sort"
)

// Run loads the given package patterns (resolved from dir, "" = current)
// plus their in-module dependency closure, walks the packages in
// dependency order so exported facts are always available to
// dependents, and returns the target packages' diagnostics sorted by
// position (dependency packages are analyzed for facts only).
func Run(dir string, analyzers []*Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	return runLoaded(pkgs, analyzers)
}

// runLoaded walks already-loaded packages in their dependency order and
// returns the target packages' diagnostics.
func runLoaded(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allFacts := map[string]*pkgFacts{}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		env := newFactEnv()
		// Topological order guarantees every dependency (direct or
		// transitive) was analyzed first, so exposing all facts
		// accumulated so far gives the pass its full transitive-closure
		// view — the same view vet mode reconstructs from re-exported
		// .vetx documents.
		for ip, f := range allFacts {
			env.imported[basePkgPath(ip)] = f
		}
		ds, err := runPackage(pkg, analyzers, env)
		if err != nil {
			return nil, err
		}
		allFacts[pkg.Path] = env.out
		if !pkg.Dep {
			diags = append(diags, ds...)
		}
	}
	Sort(diags)
	return diags, nil
}

// RunPackage applies the analyzers to one loaded package with no
// interprocedural facts (single-package analyses and tests).
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	return runPackage(pkg, analyzers, newFactEnv())
}

func runPackage(pkg *Package, analyzers []*Analyzer, env *factEnv) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Pkg,
			Info:     pkg.Info,
			diags:    &diags,
			env:      env,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %v", a.Name, pkg.Path, err)
		}
	}
	return diags, nil
}

// Sort orders diagnostics by file, line, column, then analyzer name.
func Sort(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
