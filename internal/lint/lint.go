package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one named rule. Run inspects a loaded package and
// reports diagnostics through the pass; Match scopes the rule to the
// packages whose invariant it guards (the golden-file harness bypasses
// Match, so testdata packages exercise every rule).
type Analyzer struct {
	Name  string
	Doc   string
	Match func(importPath string) bool
	Run   func(*Pass)
}

// A Diagnostic is one positioned finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// A Pass carries one analyzer's run over one package.
type Pass struct {
	*Package
	Analyzer *Analyzer
	diags    *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// All is the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{Detrand, Maporder, Wallclock, Ctxflow, Wireshape, Metricnames, Testonly}
}

// Run applies each analyzer whose Match accepts the package, then
// folds in the //lint:allow directives: suppressed diagnostics drop
// out, and malformed or unused directives become diagnostics of their
// own. The returned slice is sorted by position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ran := map[string]bool{}
	for _, a := range analyzers {
		if a.Match != nil && !a.Match(pkg.Path) {
			continue
		}
		ran[a.Name] = true
		a.Run(&Pass{Package: pkg, Analyzer: a, diags: &diags})
	}
	diags = applyDirectives(pkg, analyzers, ran, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Message < b.Message
	})
	return diags
}

// RunAll loads every package of the module and lints it, returning all
// surviving diagnostics.
func RunAll(l *Loader, analyzers []*Analyzer) ([]Diagnostic, error) {
	paths, err := l.ModulePackages()
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, path := range paths {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		diags = append(diags, Run(pkg, analyzers)...)
	}
	return diags, nil
}

// directive is one parsed //lint:allow comment.
type directive struct {
	pos      token.Position
	analyzer string
	reason   string
	used     bool
}

const directivePrefix = "//lint:allow"

// parseDirectives collects the allow directives of every file in pkg.
// Malformed directives (unknown analyzer, missing reason) are reported
// immediately under the pseudo-analyzer name "lint".
func parseDirectives(pkg *Package, analyzers []*Analyzer, diags *[]Diagnostic) []*directive {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var dirs []*directive
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directivePrefix)
				if !ok {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "lint",
						Message: "malformed directive: want //lint:allow <analyzer> <reason>"})
					continue
				}
				name := fields[0]
				if !known[name] {
					*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "lint",
						Message: fmt.Sprintf("directive names unknown analyzer %q", name)})
					continue
				}
				reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), name))
				if reason == "" {
					*diags = append(*diags, Diagnostic{Pos: pos, Analyzer: "lint",
						Message: fmt.Sprintf("//lint:allow %s needs a reason", name)})
					continue
				}
				dirs = append(dirs, &directive{pos: pos, analyzer: name, reason: reason})
			}
		}
	}
	return dirs
}

// applyDirectives drops diagnostics covered by an allow directive on
// the same line or the line above, and reports directives that
// suppressed nothing (only for analyzers that actually ran, so a
// scoped-out rule does not invalidate its annotations).
func applyDirectives(pkg *Package, analyzers []*Analyzer, ran map[string]bool, diags []Diagnostic) []Diagnostic {
	dirs := parseDirectives(pkg, analyzers, &diags)
	if len(dirs) == 0 {
		return diags
	}
	byLine := map[string][]*directive{}
	lineKey := func(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }
	for _, d := range dirs {
		byLine[lineKey(d.pos.Filename, d.pos.Line)] = append(byLine[lineKey(d.pos.Filename, d.pos.Line)], d)
	}
	kept := diags[:0]
	for _, dg := range diags {
		suppressed := false
		if dg.Analyzer != "lint" {
			for _, line := range []int{dg.Pos.Line, dg.Pos.Line - 1} {
				for _, d := range byLine[lineKey(dg.Pos.Filename, line)] {
					if d.analyzer == dg.Analyzer {
						d.used = true
						suppressed = true
					}
				}
			}
		}
		if !suppressed {
			kept = append(kept, dg)
		}
	}
	for _, d := range dirs {
		if !d.used && ran[d.analyzer] {
			kept = append(kept, Diagnostic{Pos: d.pos, Analyzer: "lint",
				Message: fmt.Sprintf("//lint:allow %s suppresses nothing here (stale exemption)", d.analyzer)})
		}
	}
	return kept
}
