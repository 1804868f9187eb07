// Package lint is dflint: a zero-dependency static-analysis suite over
// go/parser + go/ast + go/types that enforces invariants the codebase
// states in prose but — before this package — only end-to-end tests
// could catch. The shard-determinism contract ("query answers are
// byte-identical at any shard count", paper §3.4) is the motivating one:
// an unsorted map iteration escaping into a query answer flakes a
// determinism gate hours later, but it is visible in the syntax tree the
// moment it is written. Four analyzers run over the whole tree at `make
// vet` time:
//
//	determinism — in the contract packages (rollup, server, alerting,
//	  critpath, transport, storage): map-range results escaping into
//	  returned slices, returned values, or rendered output without a
//	  sort in the same function; time.Now / math/rand in merge, collect,
//	  and evict paths.
//	lockcheck   — struct fields annotated "dflint:guardedby <mu>" must
//	  only be accessed after the named mutex is locked in the same
//	  function.
//	metricnames — selfmon registrations use compile-time-constant names
//	  matching ^deepflow_[a-z0-9_]+$, one kind per name.
//	stickyerr   — a constructed trace.WireReader whose sticky Err is
//	  never consulted; bare statements discarding module-local error
//	  returns in contract packages.
//
// Intentional exceptions carry //dflint:allow <analyzer> -- <reason>
// directives, and the tree-wide directive count is pinned by the
// checked-in .dflint-budget file.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// contractPackages are the packages whose query answers must be
// byte-identical at any shard count; the determinism and stickyerr
// analyzers scope themselves to these (matched by package name, so the
// testdata corpus can opt in by declaring the same name).
var contractPackages = map[string]bool{
	"rollup":    true,
	"server":    true,
	"alerting":  true,
	"critpath":  true,
	"transport": true,
	"storage":   true,
	// The agent's sessionizer and the codec table feed everything above;
	// their span output must be deterministic too (the sessionizer golden
	// depends on it), and their self-metric names join the same §3.4
	// correlation plane.
	"agent":     true,
	"protocols": true,
	// The durable tier replays into the same query surfaces: recovery,
	// scans, compaction, and eviction must never consult a clock or leak
	// map order, or a restarted server would answer differently.
	"dstore": true,
}

// Finding is one diagnostic: a position, the analyzer that raised it, and
// the message. Suppressed findings carry the directive's reason.
type Finding struct {
	Pos        token.Position
	Analyzer   string
	Message    string
	Suppressed bool
	Reason     string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Analyzer, f.Message)
}

// Analyzer is one invariant checker. Run is called once per package, in
// sorted package order, so stateful analyzers (metricnames uniqueness)
// see a deterministic sequence.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(p *Package, report func(pos token.Pos, msg string))
}

// Analyzers returns fresh instances of the full suite, in fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		newDeterminism(),
		newLockcheck(),
		newMetricNames(),
		newStickyErr(),
	}
}

// AnalyzerNames lists the suite's analyzer names in fixed order.
func AnalyzerNames() []string {
	var out []string
	for _, a := range Analyzers() {
		out = append(out, a.Name)
	}
	return out
}

// Result is one run of the suite over a set of packages.
type Result struct {
	Findings []Finding // every finding, suppressed or not, sorted
	Packages int

	// DirectiveCounts counts well-formed allow directives per analyzer
	// (a multi-analyzer directive counts once per analyzer named).
	DirectiveCounts map[string]int

	// BudgetViolations and DirectiveProblems are gate failures that are
	// not positional findings: budget overruns, malformed directives, and
	// directives that suppress nothing.
	BudgetViolations  []string
	DirectiveProblems []string

	// Warnings carries non-fatal loader diagnostics (type-check errors in
	// analyzed packages).
	Warnings []string
}

// Unsuppressed returns the findings that fail the gate.
func (r *Result) Unsuppressed() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Suppressed {
			out = append(out, f)
		}
	}
	return out
}

// OK reports whether the gate passes: no unsuppressed findings, no budget
// violations, no directive problems.
func (r *Result) OK() bool {
	return len(r.Unsuppressed()) == 0 && len(r.BudgetViolations) == 0 && len(r.DirectiveProblems) == 0
}

// Run loads the packages matched by patterns (relative to the loader's
// module) and runs the suite under the given budget.
func Run(l *Loader, patterns []string, budget Budget) (*Result, error) {
	dirs, err := l.Expand(patterns)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		p, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return RunPackages(l, pkgs, budget), nil
}

// RunPackages runs the suite over already-loaded packages.
func RunPackages(l *Loader, pkgs []*Package, budget Budget) *Result {
	res := &Result{Packages: len(pkgs), DirectiveCounts: make(map[string]int)}
	analyzers := Analyzers()

	var directives []*Directive
	for _, p := range pkgs {
		for _, err := range p.TypeErrors {
			res.Warnings = append(res.Warnings, fmt.Sprintf("%s: type error: %v", p.Path, err))
		}
		dirs := collectDirectives(p)
		for _, d := range dirs {
			d.Pos.Filename = relName(l, d.Pos.Filename)
		}
		directives = append(directives, dirs...)

		for _, a := range analyzers {
			a := a
			a.Run(p, func(pos token.Pos, msg string) {
				f := Finding{Pos: relPosition(l, p.Fset.Position(pos)), Analyzer: a.Name, Message: msg}
				for _, d := range dirs {
					if d.covers(a.Name, f.Pos.Filename, f.Pos.Line) {
						f.Suppressed, f.Reason = true, d.Reason
						d.used = true
						break
					}
				}
				res.Findings = append(res.Findings, f)
			})
		}
	}

	for _, d := range directives {
		switch {
		case d.Malformed != "":
			res.DirectiveProblems = append(res.DirectiveProblems,
				fmt.Sprintf("%s:%d: directive %s", relName(l, d.Pos.Filename), d.Pos.Line, d.Malformed))
		case !d.used:
			res.DirectiveProblems = append(res.DirectiveProblems,
				fmt.Sprintf("%s:%d: directive suppresses nothing (stale //dflint:allow %s)",
					relName(l, d.Pos.Filename), d.Pos.Line, strings.Join(d.Analyzers, ",")))
		default:
			for _, a := range d.Analyzers {
				res.DirectiveCounts[a]++
			}
		}
	}
	sort.Strings(res.DirectiveProblems)
	res.BudgetViolations = budget.check(res.DirectiveCounts)

	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	return res
}

// relPosition rewrites a position's filename relative to the module root,
// keeping output (and the directive matching that runs on it) stable no
// matter where dflint is invoked from.
func relPosition(l *Loader, pos token.Position) token.Position {
	pos.Filename = relName(l, pos.Filename)
	return pos
}

func relName(l *Loader, name string) string {
	if rel, err := filepath.Rel(l.ModuleRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return name
}

// --- shared AST/type helpers used by the analyzers ---

// funcDecls yields every function declaration with a body in the package.
func funcDecls(p *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				out = append(out, fd)
			}
		}
	}
	return out
}

// typeOf returns the type of expr, or nil.
func (p *Package) typeOf(expr ast.Expr) types.Type {
	if tv, ok := p.Info.Types[expr]; ok {
		return tv.Type
	}
	return nil
}

// objectOf resolves an identifier to its object via Uses then Defs.
func (p *Package) objectOf(id *ast.Ident) types.Object {
	if o := p.Info.Uses[id]; o != nil {
		return o
	}
	return p.Info.Defs[id]
}

// pkgPathOf returns the import path of the package an object belongs to,
// or "" for builtins and nil objects.
func pkgPathOf(o types.Object) string {
	if o == nil || o.Pkg() == nil {
		return ""
	}
	return o.Pkg().Path()
}

// namedOrPointee unwraps pointers and aliases down to a named type.
func namedOrPointee(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	t = types.Unalias(t)
	if ptr, ok := t.(*types.Pointer); ok {
		t = types.Unalias(ptr.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// isNamedType reports whether t (or its pointee) is the named type
// pkgName.typeName, matching the package by name so testdata fixtures
// under other import paths still count.
func isNamedType(t types.Type, pkgName, typeName string) bool {
	n := namedOrPointee(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Name() == pkgName
}
