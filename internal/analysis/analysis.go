// Package analysis implements vegacheck, a from-scratch static analyzer
// (standard library go/parser + go/ast + go/types only) that machine-
// checks the repo's performance and ownership invariants:
//
//   - hotpath-alloc / hotpath-time: functions annotated
//     //vegapunk:hotpath — and every module function they statically
//     call — must not contain allocating constructs or wall-clock reads.
//   - scratch-own: a vector returned by a Decode method is owned by the
//     decoder ("owned until next Decode"); it must not be stored into a
//     struct field, sent on a channel, or returned (except by another
//     Decode method, which propagates the contract) without first being
//     copied out via gf2.CopyVec or Clone.
//   - err-unchecked: commands under cmd/ and the serving,
//     fault-injection and network layers (internal/serve,
//     internal/faultinject, internal/netfault, internal/wire,
//     internal/cluster) must not drop error returns.
//   - goroutine-lifecycle: every go statement must be structurally tied
//     to a bounded lifecycle (a sync.WaitGroup Done, a channel receive
//     or a range over a channel in the spawned body) or carry a
//     //vegapunk:goroutine(<owner>) annotation naming who reaps it.
//   - lock-blocking: no channel operation, net I/O, time.Sleep or
//     blocking sync call — directly or through a statically resolved
//     module callee — while a sync.Mutex/RWMutex is held.
//   - ctx-propagate: a function that takes a context.Context must not
//     mint a fresh context.Background/TODO; inside internal/serve,
//     internal/cluster and internal/wire, Background/TODO are banned
//     outside annotated lifecycle roots.
//   - atomic-mix: a variable accessed through sync/atomic anywhere in
//     the module must never be read or written plainly.
//
// See internal/README.md ("The vegacheck annotation language") for the
// annotation grammar and worked examples.
package analysis

import (
	"fmt"
	"go/token"
	"sort"
)

// Rule identifiers, as printed in diagnostics and accepted (with the
// short aliases in aliasRule) by allow directives.
const (
	RuleHotpathAlloc = "hotpath-alloc"
	RuleHotpathTime  = "hotpath-time"
	RuleScratchOwn   = "scratch-own"
	RuleErrUnchecked = "err-unchecked"
	RuleGoroutine    = "goroutine-lifecycle"
	RuleLockBlocking = "lock-blocking"
	RuleCtxPropagate = "ctx-propagate"
	RuleAtomicMix    = "atomic-mix"
	RuleAnnotation   = "annotation"
)

// Diagnostic is one finding.
type Diagnostic struct {
	// Pos locates the offending construct.
	Pos token.Position
	// Rule is the rule id (one of the Rule constants).
	Rule string
	// Msg describes the violation.
	Msg string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Msg)
}

// Result is a whole-module analysis run.
type Result struct {
	// Module is the analyzed module path.
	Module string
	// Dir is the module root.
	Dir string
	// Diagnostics are the surviving findings, sorted by position.
	Diagnostics []Diagnostic
	// HotpathFuncs lists the annotated hot-path roots (full names).
	HotpathFuncs []string
	// HotpathReached counts module functions in the transitive hot-path
	// closure (roots included).
	HotpathReached int
}

// Run loads the module containing dir and applies every rule.
func Run(dir string) (*Result, error) {
	mod, err := Load(dir)
	if err != nil {
		return nil, err
	}
	return Check(mod), nil
}

// Check applies every rule to an already loaded module.
func Check(mod *Module) *Result {
	c := &checker{mod: mod}
	c.collectAnnotations()
	c.buildCallGraph()
	c.checkHotpaths()
	c.checkScratch()
	c.checkErrUnchecked()
	c.checkGoroutines()
	c.checkLockBlocking()
	c.checkCtxPropagate()
	c.checkAtomicMix()

	res := &Result{Module: mod.Path, Dir: mod.Dir}
	for _, fn := range c.closureOrder {
		if fn.annotated {
			res.HotpathFuncs = append(res.HotpathFuncs, fn.obj.FullName())
		}
	}
	sort.Strings(res.HotpathFuncs)
	res.HotpathReached = len(c.closureOrder)
	res.Diagnostics = c.diags
	sort.Slice(res.Diagnostics, func(i, j int) bool {
		a, b := res.Diagnostics[i], res.Diagnostics[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return res
}

// checker carries the per-run state shared by all rules.
type checker struct {
	mod   *Module
	ann   *annotations
	funcs map[funcKey]*funcInfo
	// closureOrder lists the hot-path closure in BFS order from the
	// annotated roots.
	closureOrder []*funcInfo
	diags        []Diagnostic
}

// report records a diagnostic unless an allow directive suppresses it.
func (c *checker) report(pos token.Pos, rule, format string, args ...any) {
	if rule != RuleAnnotation && c.allowed(pos, rule) {
		return
	}
	c.diags = append(c.diags, Diagnostic{
		Pos:  c.mod.Fset.Position(pos),
		Rule: rule,
		Msg:  fmt.Sprintf(format, args...),
	})
}
