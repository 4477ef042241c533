package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// The vegacheck annotation language, embedded in ordinary comments:
//
//	//vegapunk:hotpath
//	    On a function's doc comment: the function (and every module
//	    function it statically calls) must be allocation-free.
//
//	//vegapunk:allow(<rule>) <reason>
//	    Suppresses <rule> diagnostics on the same line (trailing
//	    comment) or on the line directly below (standalone comment).
//	    The reason is mandatory. An allow(alloc) on a call line also
//	    stops the hot-path closure from descending into that callee,
//	    and an allow(block) on a blocking construct or call line stops
//	    the lock-blocking escalation from treating it as blocking.
//
//	//vegapunk:goroutine(<owner>) <reason>
//	    On a go statement's line (or the line directly above): vouches
//	    that the spawned goroutine has a bounded lifecycle even though
//	    the analyzer cannot see the structural evidence. <owner> names
//	    who reaps the goroutine (e.g. Service.Close); the reason says
//	    what ends it. Both are mandatory.
//
// <rule> is a rule id (hotpath-alloc, ...) or its short family alias:
// alloc, time, scratch, lock, err, goroutine, block, ctx, atomic.

const (
	hotpathDirective   = "//vegapunk:hotpath"
	allowDirective     = "//vegapunk:allow("
	goroutineDirective = "//vegapunk:goroutine("
	directivePrefix    = "//vegapunk:"
)

// allowKey identifies one suppressed line.
type allowKey struct {
	file string
	line int
}

// annotations is the per-module directive table.
type annotations struct {
	// hotpath holds the *ast.FuncDecl positions annotated hotpath.
	hotpath map[token.Pos]bool
	// allows maps a (file, line) to the set of suppressed rule ids.
	allows map[allowKey]map[string]bool
	// goroutines holds the (file, line) positions carrying a
	// //vegapunk:goroutine(<owner>) annotation.
	goroutines map[allowKey]bool
}

// aliasRule resolves a rule name or family alias to a rule id.
func aliasRule(name string) (string, bool) {
	switch name {
	case "alloc", RuleHotpathAlloc:
		return RuleHotpathAlloc, true
	case "time", RuleHotpathTime:
		return RuleHotpathTime, true
	case "scratch", RuleScratchOwn:
		return RuleScratchOwn, true
	case "err", RuleErrUnchecked:
		return RuleErrUnchecked, true
	case "goroutine", RuleGoroutine:
		return RuleGoroutine, true
	case "block", RuleLockBlocking:
		return RuleLockBlocking, true
	case "ctx", RuleCtxPropagate:
		return RuleCtxPropagate, true
	case "atomic", RuleAtomicMix:
		return RuleAtomicMix, true
	}
	return "", false
}

// collectAnnotations scans every comment in the module for vegapunk
// directives, reporting malformed ones under the annotation rule.
func (c *checker) collectAnnotations() {
	c.ann = &annotations{
		hotpath:    map[token.Pos]bool{},
		allows:     map[allowKey]map[string]bool{},
		goroutines: map[allowKey]bool{},
	}
	for _, pkg := range c.mod.Pkgs {
		for _, f := range pkg.Files {
			// Hotpath directives are only meaningful in function docs.
			docDirectives := map[token.Pos]bool{}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				for _, cm := range fd.Doc.List {
					if strings.TrimSpace(cm.Text) == hotpathDirective {
						c.ann.hotpath[fd.Pos()] = true
						docDirectives[cm.Pos()] = true
					}
				}
			}
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					c.scanDirective(cm, docDirectives)
				}
			}
		}
	}
}

// scanDirective validates one comment against the directive grammar.
func (c *checker) scanDirective(cm *ast.Comment, docDirectives map[token.Pos]bool) {
	text := strings.TrimSpace(cm.Text)
	if !strings.HasPrefix(text, directivePrefix) {
		return
	}
	switch {
	case text == hotpathDirective:
		if !docDirectives[cm.Pos()] {
			c.report(cm.Pos(), RuleAnnotation,
				"//vegapunk:hotpath must be part of a function's doc comment")
		}
	case strings.HasPrefix(text, goroutineDirective):
		rest := text[len(goroutineDirective):]
		close := strings.IndexByte(rest, ')')
		if close < 0 {
			c.report(cm.Pos(), RuleAnnotation, "malformed goroutine directive: missing ')'")
			return
		}
		if strings.TrimSpace(rest[:close]) == "" {
			c.report(cm.Pos(), RuleAnnotation,
				"goroutine directive needs an owner: //vegapunk:goroutine(<owner>) who reaps it")
			return
		}
		if strings.TrimSpace(rest[close+1:]) == "" {
			c.report(cm.Pos(), RuleAnnotation,
				"goroutine(%s) needs a reason: //vegapunk:goroutine(%s) what bounds its lifetime",
				rest[:close], rest[:close])
			return
		}
		pos := c.mod.Fset.Position(cm.Pos())
		c.ann.goroutines[allowKey{file: pos.Filename, line: pos.Line}] = true
	case text == strings.TrimSuffix(goroutineDirective, "(") ||
		strings.HasPrefix(text, strings.TrimSuffix(goroutineDirective, "(")+" "):
		c.report(cm.Pos(), RuleAnnotation,
			"malformed goroutine directive: missing '(<owner>)'")
	case strings.HasPrefix(text, allowDirective):
		rest := text[len(allowDirective):]
		close := strings.IndexByte(rest, ')')
		if close < 0 {
			c.report(cm.Pos(), RuleAnnotation, "malformed allow directive: missing ')'")
			return
		}
		rule, ok := aliasRule(rest[:close])
		if !ok {
			c.report(cm.Pos(), RuleAnnotation,
				"unknown rule %q in allow directive (want alloc, time, scratch, lock, err, goroutine, block, ctx or atomic)", rest[:close])
			return
		}
		reason := strings.TrimSpace(rest[close+1:])
		if reason == "" {
			c.report(cm.Pos(), RuleAnnotation,
				"allow(%s) needs a reason: //vegapunk:allow(%s) why this is fine", rest[:close], rest[:close])
			return
		}
		pos := c.mod.Fset.Position(cm.Pos())
		key := allowKey{file: pos.Filename, line: pos.Line}
		if c.ann.allows[key] == nil {
			c.ann.allows[key] = map[string]bool{}
		}
		c.ann.allows[key][rule] = true
	default:
		c.report(cm.Pos(), RuleAnnotation,
			"unknown vegapunk directive %q (want hotpath, goroutine or allow)", text)
	}
}

// allowed reports whether rule diagnostics at pos are suppressed by an
// allow directive on the same line or the line above.
func (c *checker) allowed(pos token.Pos, rule string) bool {
	p := c.mod.Fset.Position(pos)
	for _, line := range [2]int{p.Line, p.Line - 1} {
		if set := c.ann.allows[allowKey{file: p.Filename, line: line}]; set[rule] {
			return true
		}
	}
	return false
}

// isHotpathAnnotated reports whether the function declaration carries a
// hotpath directive.
func (c *checker) isHotpathAnnotated(fd *ast.FuncDecl) bool {
	return c.ann.hotpath[fd.Pos()]
}

// goroutineAnnotated reports whether the go statement at pos carries a
// //vegapunk:goroutine annotation on the same line or the line above.
func (c *checker) goroutineAnnotated(pos token.Pos) bool {
	p := c.mod.Fset.Position(pos)
	for _, line := range [2]int{p.Line, p.Line - 1} {
		if c.ann.goroutines[allowKey{file: p.Filename, line: line}] {
			return true
		}
	}
	return false
}
