package srccheck

import (
	"go/ast"
	"go/token"
	"go/types"
)

// checkHotpath gates the zero-steady-state-allocation claim of the
// event-driven engine: every function annotated //ddvet:hotpath (the cycle
// body and its stages, the core's queue accessors and retire path, memsys
// Grant/CommitStore, the sched heap ops, the emulator's StepInto and the
// memory accessors it calls) is checked two ways.
//
// AST rules flag constructs that allocate by construction:
//
//	hotpath-alloc    make/new, slice/map/chan composite literals,
//	                 string<->[]byte/[]rune conversions, string
//	                 concatenation.
//	hotpath-append   append may grow its backing array; amortized-growth
//	                 slabs carry an //ddvet:allow with the amortization
//	                 argument.
//	hotpath-closure  a func literal that captures variables allocates its
//	                 context.
//	hotpath-fmt      fmt formatting allocates (boxing + buffers) on every
//	                 call.
//
// Cross-validation (when Config.Escapes is populated from -gcflags=-m)
// flags what only the compiler can see:
//
//	hotpath-escape   the escape analysis proved a heap allocation inside
//	                 the annotated body — the ground truth the AST rules
//	                 approximate.
//
// The body check is shallow by design: callees are checked only if they are
// themselves annotated. The escape cross-validation closes most of that
// gap, because the compiler inlines the small leaf helpers into the
// annotated frames.
func checkHotpath(m *Module, cfg *Config) []Finding {
	var out []Finding
	for _, hp := range m.hotpaths {
		pkg, file, fileName, fd := hp.pkg, hp.file, hp.fileName, hp.decl
		if fd.Body == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch node := n.(type) {
			case *ast.CallExpr:
				if name, ok := builtinName(pkg, node); ok {
					switch name {
					case "make", "new":
						out = append(out, m.finding("hotpath-alloc", pkg, file, fileName, node.Pos(),
							name+" in a //ddvet:hotpath function",
							[]string{"allocates on every execution of this path"}))
					case "append":
						out = append(out, m.finding("hotpath-append", pkg, file, fileName, node.Pos(),
							"append in a //ddvet:hotpath function",
							[]string{"append grows its backing array when capacity runs out",
								"preallocate, or //ddvet:allow with the amortization argument"}))
					}
					return true
				}
				if isTypeConversion(pkg, node) {
					if convAllocates(pkg, node) {
						out = append(out, m.finding("hotpath-alloc", pkg, file, fileName, node.Pos(),
							"allocating conversion in a //ddvet:hotpath function",
							[]string{"string <-> byte/rune slice conversions copy through the heap"}))
					}
					return true
				}
				if sel, ok := node.Fun.(*ast.SelectorExpr); ok {
					if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
						out = append(out, m.finding("hotpath-fmt", pkg, file, fileName, node.Pos(),
							"fmt."+fn.Name()+" in a //ddvet:hotpath function",
							[]string{"fmt formatting boxes its arguments and allocates buffers"}))
					}
				}
			case *ast.FuncLit:
				out = append(out, m.finding("hotpath-closure", pkg, file, fileName, node.Pos(),
					"func literal in a //ddvet:hotpath function",
					[]string{"a capturing closure allocates its context; hoist it or pass state explicitly"}))
				return false // its body is part of this closure, already flagged
			case *ast.CompositeLit:
				t := pkg.Info.Types[node].Type
				if t == nil {
					return true
				}
				switch t.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Chan:
					out = append(out, m.finding("hotpath-alloc", pkg, file, fileName, node.Pos(),
						"slice/map/chan literal in a //ddvet:hotpath function",
						[]string{"composite literals of reference types allocate their backing store"}))
				}
			case *ast.BinaryExpr:
				if node.Op == token.ADD {
					if t := pkg.Info.Types[node.X].Type; t != nil {
						if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
							out = append(out, m.finding("hotpath-alloc", pkg, file, fileName, node.Pos(),
								"string concatenation in a //ddvet:hotpath function",
								[]string{"string + allocates the result"}))
						}
					}
				}
			case *ast.GoStmt:
				out = append(out, m.finding("hotpath-alloc", pkg, file, fileName, node.Pos(),
					"goroutine launch in a //ddvet:hotpath function",
					[]string{"go statements allocate a stack and scheduler state"}))
			}
			return true
		})
		out = append(out, m.escapeFindings(hp, cfg.Escapes)...)
	}
	return out
}

// convAllocates reports whether a conversion call is one of the forms that
// copy through the heap: string([]byte), string([]rune), []byte(string),
// []rune(string).
func convAllocates(pkg *Package, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	dst := pkg.Info.Types[call.Fun].Type
	src := pkg.Info.Types[call.Args[0]].Type
	if dst == nil || src == nil {
		return false
	}
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Rune ||
			e.Kind() == types.Uint8 || e.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStr(src))
}

// escapeFindings maps compiler escape diagnostics into the annotated
// function's body range. Diagnostics inside panic(...) arguments are
// exempt: a taken panic terminates the run (the core contains it into a
// SimError), so its boxing cost is never steady-state — and invariant
// panics with descriptive messages are exactly what the hot paths should
// keep.
func (m *Module) escapeFindings(hp hotpathFunc, escapes []EscapeDiag) []Finding {
	if len(escapes) == 0 {
		return nil
	}
	start := m.Fset.Position(hp.decl.Pos()).Line
	end := m.Fset.Position(hp.decl.End()).Line
	panicLines := map[int]bool{}
	ast.Inspect(hp.decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, isBuiltin := builtinName(hp.pkg, call); isBuiltin && name == "panic" {
			for l := m.Fset.Position(call.Pos()).Line; l <= m.Fset.Position(call.End()).Line; l++ {
				panicLines[l] = true
			}
		}
		return true
	})
	var out []Finding
	for _, e := range escapes {
		if e.File != hp.fileName || e.Line < start || e.Line > end || panicLines[e.Line] {
			continue
		}
		out = append(out, Finding{
			Rule:     "hotpath-escape",
			Severity: SevError,
			File:     hp.fileName,
			Line:     e.Line,
			Col:      e.Col,
			Package:  hp.pkg.ImportPath,
			Symbol:   funcSymbol(hp.decl),
			Message:  "escape analysis proves a heap allocation in a //ddvet:hotpath function",
			Reason:   []string{"compiler: " + e.Msg},
		})
	}
	return out
}
