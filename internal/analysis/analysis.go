// Package analysis is powervet's self-contained static-analysis framework:
// a minimal mirror of the golang.org/x/tools/go/analysis API (Analyzer,
// Pass, Diagnostic) built entirely on the standard library's go/ast and
// go/types, plus the five repository-specific analyzers that machine-check
// invariants this codebase previously enforced only by convention or by a
// single runtime test:
//
//   - rngtag:    every xrand.NewSharded stream family outside internal/xrand
//     must be domain-separated via xrand.Tag with a distinct tag
//     (the PR 4 RNG stream-collision class), and math/rand is
//     forbidden outside internal/xrand.
//   - hotpath:   functions annotated //powervet:hotpath must contain no heap
//     allocations, no interface method calls, and no defer.
//   - lockscope: every spinLock/sync.Mutex acquire has a matching Unlock on
//     all control-flow paths, and nothing blocks while a lock is
//     held (internal/core only).
//   - cacheline: structs annotated //powervet:cacheline=N are size-checked
//     against N via types.Sizes at analysis time.
//   - detrand:   deterministic packages may not call time.Now or iterate
//     maps (nondeterministic order).
//
// The framework is homegrown rather than depending on x/tools because this
// module is deliberately dependency-free; the API shape is kept close to
// go/analysis so migrating onto the real framework later is mechanical.
//
// # Directives
//
// Analyzers are driven by comment directives (written like //go: pragmas,
// no space after //):
//
//	//powervet:hotpath                — on a function: enforce the hot-path
//	                                    discipline on its body.
//	//powervet:cacheline=128          — on a struct type: its size must be
//	                                    exactly 128 bytes (a multiple of 64).
//	//powervet:locks result.lock      — on a function: it returns with the
//	//powervet:locks globalMu           named lock held (nil result = not
//	                                    held); callers must release it.
//	//powervet:allow <analyzer> <why> — on (or directly above) a line:
//	                                    suppress that analyzer there. The
//	                                    reason is mandatory.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned and attributed to an analyzer.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check. Run is invoked once per analysis unit
// (package, or external test package); Finish, when set, is invoked once
// after every unit ran, for cross-package checks (rngtag's tag-uniqueness).
type Analyzer struct {
	Name string
	Doc  string
	// TestFiles selects whether _test.go files are analyzed. Runtime
	// invariants (hotpath, lockscope, cacheline) apply to shipped code only;
	// RNG hygiene (rngtag) applies to harnesses and tests too — the PR 4
	// collision was in a benchmark harness.
	TestFiles bool
	Run       func(*Pass) error
	Finish    func(g *Global, report func(Diagnostic))
}

// Global accumulates cross-package facts between Run calls for Finish.
type Global struct {
	// TagUses records every xrand.Tag call site with a constant tag, for the
	// cross-package tag-uniqueness check.
	TagUses []TagUse
}

// TagUse is one domain-separation tag occurrence.
type TagUse struct {
	// Lit is the tag's constant string value.
	Lit string
	Pos token.Position
	// ConstID identifies the named constant the tag came through (its
	// declaration position), or "" for a direct string literal. Multiple
	// uses of one named constant are one domain by design (e.g. a
	// regression test reproducing a harness's stream family); two direct
	// literals — or two distinct constants — with equal text are a
	// collision.
	ConstID string
	// Waived marks a use suppressed by //powervet:allow: it still counts as
	// a colliding source for other sites but is not itself reported.
	Waived bool
}

// Pass carries one analysis unit through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the unit's syntax trees, already filtered according to the
	// analyzer's TestFiles setting.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	Sizes types.Sizes
	// Path is the unit's import path ("powerchoice/internal/core").
	Path string
	// ForTest marks the external test package unit (package foo_test).
	ForTest bool
	Global  *Global

	allow  map[allowKey]bool
	report func(Diagnostic)
}

type allowKey struct {
	file     string
	line     int
	analyzer string
}

// Reportf files a diagnostic unless a //powervet:allow directive for this
// analyzer covers the line (same line, or the line directly above).
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.allow[allowKey{position.Filename, position.Line, p.Analyzer.Name}] {
		return
	}
	p.report(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// buildAllow indexes every //powervet:allow directive of the unit: a
// directive suppresses its own line and the next one, so it works both
// trailing a statement and standing alone above it.
func buildAllow(fset *token.FileSet, files []*ast.File) map[allowKey]bool {
	allow := make(map[allowKey]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, _, ok := parseAllow(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				allow[allowKey{pos.Filename, pos.Line, name}] = true
				allow[allowKey{pos.Filename, pos.Line + 1, name}] = true
			}
		}
	}
	return allow
}

// parseAllow parses "//powervet:allow <analyzer> <reason...>". ok is false
// for non-allow comments; a malformed allow (missing analyzer or reason)
// returns ok=true with an empty name so CheckDirectives can flag it.
func parseAllow(text string) (analyzer, reason string, ok bool) {
	const prefix = "//powervet:allow"
	if !strings.HasPrefix(text, prefix) {
		return "", "", false
	}
	rest := strings.TrimSpace(strings.TrimPrefix(text, prefix))
	name, reason, _ := strings.Cut(rest, " ")
	if name == "" || strings.TrimSpace(reason) == "" {
		return "", "", true
	}
	return name, strings.TrimSpace(reason), true
}

// directive returns the argument of a //powervet:<verb> line in the doc
// comment group, and whether it is present ("" argument is valid for
// bare verbs like //powervet:hotpath).
func directive(doc *ast.CommentGroup, verb string) (arg string, ok bool) {
	if doc == nil {
		return "", false
	}
	prefix := "//powervet:" + verb
	for _, c := range doc.List {
		if !strings.HasPrefix(c.Text, prefix) {
			continue
		}
		rest := c.Text[len(prefix):]
		switch {
		case rest == "":
			return "", true
		case rest[0] == ' ' || rest[0] == '=':
			return strings.TrimSpace(rest[1:]), true
		}
	}
	return "", false
}

// knownVerbs are the directive verbs powervet understands.
var knownVerbs = map[string]bool{"hotpath": true, "cacheline": true, "locks": true, "allow": true}

// CheckDirectives validates every //powervet: comment of the unit: unknown
// verbs and allow directives without analyzer or reason are reported, so a
// typoed annotation cannot silently disable a check.
func CheckDirectives(fset *token.FileSet, files []*ast.File, suite []*Analyzer, report func(Diagnostic)) {
	names := make(map[string]bool, len(suite))
	for _, a := range suite {
		names[a.Name] = true
	}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, found := strings.CutPrefix(c.Text, "//powervet:")
				if !found {
					continue
				}
				verb := rest
				if i := strings.IndexAny(rest, " ="); i >= 0 {
					verb = rest[:i]
				}
				pos := fset.Position(c.Pos())
				if !knownVerbs[verb] {
					report(Diagnostic{Pos: pos, Analyzer: "powervet", Message: fmt.Sprintf("unknown powervet directive %q", verb)})
					continue
				}
				if verb == "allow" {
					name, _, _ := parseAllow(c.Text)
					if name == "" {
						report(Diagnostic{Pos: pos, Analyzer: "powervet", Message: "malformed //powervet:allow: need an analyzer name and a reason"})
					} else if !names[name] {
						report(Diagnostic{Pos: pos, Analyzer: "powervet", Message: fmt.Sprintf("//powervet:allow names unknown analyzer %q", name)})
					}
				}
			}
		}
	}
}

// Suite returns the five powervet analyzers in reporting order.
func Suite() []*Analyzer {
	return []*Analyzer{RngTag, HotPath, LockScope, CacheLine, DetRand}
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
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

// funcObj resolves a call expression to the static *types.Func it invokes,
// or nil for dynamic calls (function values), built-ins, and conversions.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := fun.X.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return fn
			}
		}
	case *ast.IndexListExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			if fn, ok := info.Uses[id].(*types.Func); ok {
				return fn
			}
		}
	}
	return nil
}

// fullName returns a stable "<pkgpath>.<Recv?>.<name>" key for a function.
func fullName(fn *types.Func) string {
	if fn.Pkg() == nil {
		return fn.Name()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Pkg().Path() + "." + fn.Name()
}
