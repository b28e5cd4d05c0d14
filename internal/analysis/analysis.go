// Package analysis is costsense's static-analysis layer: a small,
// dependency-free analogue of golang.org/x/tools/go/analysis (which is
// deliberately not vendored — the suite must build offline with the
// bare toolchain), a module-wide interprocedural effect-summary layer
// (summary.go), and the eight project-specific analyzers behind
// cmd/costsense-vet:
//
//   - detmap: no map-iteration order may reach deterministic output
//   - detsource: no wall clock, timers, global RNG or scheduler
//     queries in simulator and protocol code
//   - hotpathalloc: //costsense:hotpath functions stay allocation-free
//   - hotpathtrans: ...including through every module-local callee,
//     judged by the callee's effect summary
//   - arenaref: protocol handlers must not retain arena messages
//   - lockguard: no blocking op or nested acquisition while a mutex is
//     held; every lock released on all paths
//   - ctxflow (serve/harness/cmd only): detached contexts only at
//     audited roots, goroutines need a termination path, blocking or
//     spawning functions must be able to observe cancellation
//   - errflow: no silently discarded error results
//
// The simulator's contract — byte-identical Stats for a fixed seed,
// zero allocations per delivered event — is what makes the paper's
// c_π/t_π measurements trustworthy; these analyzers move that contract
// from golden tests into the compile loop, and the v2 set extends it
// to the experiment service's concurrency. See DESIGN.md, "Static
// analysis & invariants".
//
// # Annotation contract
//
// Suppressions silence one finding at one line, after a human audit,
// when placed on or directly above the flagged line:
//
//   - `//costsense:nondet-ok <why>` — detmap, detsource
//   - `//costsense:alloc-ok <why>` — hotpathalloc, hotpathtrans
//   - `//costsense:retain-ok <why>` — arenaref
//   - `//costsense:lock-ok <why>` — lockguard
//   - `//costsense:ctx-ok <why>` — ctxflow
//   - `//costsense:err-ok <why>` — errflow
//
// A suppression must carry a justification; bare directives are
// themselves reported. The one marker, `//costsense:hotpath`, changes
// what is checked instead of silencing a check: it opts a function into
// the allocation analyzers. The -audit mode (audit.go) inventories
// every suppression and fails on stale, unjustified or unknown ones.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Directive is the comment prefix of all costsense-vet annotations.
const Directive = "//costsense:"

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	// Suppress names the directive that silences a finding of this
	// analyzer ("nondet-ok", "alloc-ok", "retain-ok"). Empty means the
	// analyzer's findings cannot be suppressed.
	Suppress string
	// Scoped restricts the analyzer to the deterministic core (the
	// root package, internal/..., and cmd/...): examples and scripts
	// may print maps in any order they like.
	Scoped bool
	// Match, when non-nil, further restricts the analyzer to packages
	// it approves (ctxflow covers only the long-lived concurrent
	// layers: internal/serve, internal/harness, cmd). Applied by Check;
	// direct Run calls (the analysistest harness) bypass it.
	Match func(modulePath, importPath string) bool
	Run   func(*Pass)
}

// Diagnostic is one finding, positioned for a file:line:col report.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Tracker records which suppression directives were consulted by any
// analyzer (or by the summary layer) during a run. The -audit mode
// uses it to flag stale directives: a suppression nothing consults no
// longer suppresses anything and should be deleted.
type Tracker struct {
	used map[string]bool // "filename\x00line\x00verb"
}

// NewTracker returns an empty usage tracker.
func NewTracker() *Tracker { return &Tracker{used: make(map[string]bool)} }

func trackerKey(file string, line int, verb string) string {
	return fmt.Sprintf("%s\x00%d\x00%s", file, line, verb)
}

func (t *Tracker) record(file string, line int, verb string) {
	if t != nil {
		t.used[trackerKey(file, line, verb)] = true
	}
}

// Used reports whether any check consulted the directive at file:line.
func (t *Tracker) Used(file string, line int, verb string) bool {
	return t != nil && t.used[trackerKey(file, line, verb)]
}

// Pass carries one analyzer's run over one package and collects its
// diagnostics, applying line-level suppression directives.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Sum holds the module-local interprocedural summaries (summary.go)
	// for the analyzers that consult callee effects (lockguard, ctxflow,
	// hotpathtrans). Populated by Check and RunWith.
	Sum *Summaries

	diags      []Diagnostic
	directives map[string]map[int][]directive // filename -> line -> directives
	tracker    *Tracker
}

// directive is one parsed //costsense: comment.
type directive struct {
	verb   string // e.g. "nondet-ok"
	reason string // the justification text after the verb
}

// NewPass prepares an analyzer run over pkg.
func NewPass(a *Analyzer, pkg *Package) *Pass {
	p := &Pass{Analyzer: a, Pkg: pkg, directives: make(map[string]map[int][]directive)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, Directive)
				if !ok {
					continue
				}
				verb, reason, _ := strings.Cut(rest, " ")
				pos := pkg.Fset.Position(c.Pos())
				byLine := p.directives[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]directive)
					p.directives[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], directive{verb: verb, reason: strings.TrimSpace(reason)})
			}
		}
	}
	return p
}

// Report records a finding at pos unless a matching suppression
// directive annotates that line or the line directly above it.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	if p.Analyzer.Suppress != "" {
		if d, ok := p.directiveNear(position, p.Analyzer.Suppress); ok {
			if d.reason != "" {
				return // audited and justified
			}
			p.diags = append(p.diags, Diagnostic{
				Pos:      position,
				Analyzer: p.Analyzer.Name,
				Message: fmt.Sprintf("%s%s directive needs a justification (\"%s%s <why>\")",
					Directive, p.Analyzer.Suppress, Directive, p.Analyzer.Suppress),
			})
			return
		}
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// directiveNear finds a verb directive on pos's line or the line
// above, recording the hit with the pass's tracker (consulted
// directives are not stale, whatever the audit verdict).
func (p *Pass) directiveNear(pos token.Position, verb string) (directive, bool) {
	byLine := p.directives[pos.Filename]
	for _, line := range [...]int{pos.Line, pos.Line - 1} {
		for _, d := range byLine[line] {
			if d.verb == verb {
				p.tracker.record(pos.Filename, line, verb)
				return d, true
			}
		}
	}
	return directive{}, false
}

// Diagnostics returns the findings in position order.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool {
		a, b := p.diags[i].Pos, p.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return p.diags
}

// TypeOf returns the static type of e, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// ObjectOf returns the object an identifier denotes, or nil.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.Pkg.Info.Uses[id]; obj != nil {
		return obj
	}
	return p.Pkg.Info.Defs[id]
}

// CalleeFunc resolves a call to the package-level function or method
// object it invokes, or nil for builtins, conversions, function values
// and indirect calls.
func (p *Pass) CalleeFunc(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := p.ObjectOf(fun).(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := p.ObjectOf(fun.Sel).(*types.Func)
		return fn
	}
	return nil
}

// IsBuiltinCall reports whether call invokes the named builtin.
func (p *Pass) IsBuiltinCall(call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = p.ObjectOf(id).(*types.Builtin)
	return ok
}

// InScope reports whether the analyzer applies to the package at
// importPath under its Scoped setting. Packages outside the module's
// deterministic core (examples, scripts) are exempt from the scoped
// determinism analyzers but still see the annotation-driven ones.
func (a *Analyzer) InScope(modulePath, importPath string) bool {
	if !a.Scoped {
		return true
	}
	if importPath == modulePath {
		return true
	}
	for _, sub := range [...]string{"/internal/", "/cmd/"} {
		if strings.HasPrefix(importPath, modulePath+sub) {
			return true
		}
	}
	return false
}

// WalkStack walks the AST rooted at root, calling fn with each node
// and the stack of its ancestors (outermost first, not including n).
// If fn returns false the node's children are skipped.
func WalkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			// Still push: Inspect will visit children regardless of our
			// bookkeeping only if we return true, so skip consistently.
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// Run executes a over pkg and returns its diagnostics, computing the
// package's own interprocedural summaries first (the analysistest
// entry point: testdata packages are self-contained).
func Run(a *Analyzer, pkg *Package) []Diagnostic {
	return RunWith(a, pkg, ComputeSummaries([]*Package{pkg}, nil), nil)
}

// RunWith executes a over pkg with shared summaries and an optional
// directive-usage tracker (Check's entry point: summaries span every
// loaded package, so callee effects cross package boundaries).
func RunWith(a *Analyzer, pkg *Package, sum *Summaries, tr *Tracker) []Diagnostic {
	pass := NewPass(a, pkg)
	pass.Sum = sum
	pass.tracker = tr
	a.Run(pass)
	return pass.Diagnostics()
}
