// Package obscard protects /metrics cardinality: every metric label
// value handed to internal/obs must originate from a provably finite
// set — string literals and constants, the heuristic registry's Name()
// convention, numeric conversions (strconv.Itoa of a status code) —
// and never from request-derived strings. One graph name or query
// parameter used as a label value mints a fresh time series per
// request, and the sharded scale-out multiplies that by instance
// count.
//
// The pass runs a small whole-program classification over ssair: each
// string value is finite, unbounded, or parameter-polymorphic (it
// inherits the classification of a caller's argument). Unbounded
// origins are request-derived inputs (*http.Request, url.Values,
// http.Header, *url.URL parameters and everything flowing out of
// them), dag.Graph.Name() (caller-supplied, unbounded), error texts
// via Error(), and os.Getenv. Finite origins are constants, numeric
// strconv conversions, and niladic Name() string methods other than
// dag.Graph's — the registry-table convention. Unknown calls join
// their arguments, so fmt.Sprintf is exactly as bounded as what it
// formats.
//
// Sinks are obs.L(key, value) calls and obs.Label composite literals.
// When a sink consumes a parameter, the parameter becomes a label sink
// for every caller, interprocedurally. A value the analysis cannot
// prove finite but the author can is waived with //lint:boundedlabel
// on the sink (or flagged call) line.
package obscard

import (
	"go/ast"
	"go/token"
	"go/types"
	"sync"

	"schedcomp/internal/lint"
	"schedcomp/internal/lint/ssair"
)

// Analyzer is the obscard pass.
var Analyzer = &lint.Analyzer{
	Name: "obscard",
	Doc: "metric label values must come from provably finite sets (name tables, " +
		"constants, numeric conversions), never from request-derived strings",
	Run: run,
}

const (
	obsPath   = "schedcomp/internal/obs"
	dagPath   = "schedcomp/internal/dag"
	directive = "boundedlabel"
)

func run(pass *lint.Pass) error {
	if pass.Loader == nil {
		return nil
	}
	prog, err := ssair.For(pass)
	if err != nil {
		return err
	}
	e := analyze(prog)
	for _, f := range e.findings {
		if f.fn.Pkg == nil || f.fn.Pkg.Types != pass.Pkg {
			continue
		}
		if lint.AnnotatedIn(prog.Fset(), prog.FileFor(f.fn, f.pos), f.pos, directive) ||
			lint.AnnotatedIn(prog.Fset(), prog.FileFor(f.fn, f.fn.DeclPos()), f.fn.DeclPos(), directive) {
			continue
		}
		pass.Reportf(f.pos, "%s", f.msg)
	}
	return nil
}

// ---- classification engine ----

// A mask classifies a string value: bit 0 set means unbounded; bit
// i+1 set means "as bounded as parameter i of the enclosing function".
type mask uint64

const unbounded mask = 1

func paramBit(i int64) mask {
	if i >= 62 {
		return unbounded // out of bits: be conservative
	}
	return mask(1) << (i + 1)
}

type finding struct {
	fn  *ssair.Func
	pos token.Pos
	msg string
}

type engine struct {
	prog   *ssair.Program
	masks  map[*ssair.Value]mask
	why    map[*ssair.Value]string // unbounded origin, for messages
	ret    map[*ssair.Func]mask
	retWhy map[*ssair.Func]string
	// sinkParams marks parameters that flow into a label sink inside
	// the function (directly or transitively).
	sinkParams map[*ssair.Func]mask
	findings   []finding
	seen       map[sinkKey]bool
}

type sinkKey struct {
	pos token.Pos
	msg string
}

var memo sync.Map // *ssair.Program -> *engine

func analyze(prog *ssair.Program) *engine {
	if v, ok := memo.Load(prog); ok {
		return v.(*engine)
	}
	e := &engine{
		prog:       prog,
		masks:      map[*ssair.Value]mask{},
		why:        map[*ssair.Value]string{},
		ret:        map[*ssair.Func]mask{},
		retWhy:     map[*ssair.Func]string{},
		sinkParams: map[*ssair.Func]mask{},
		seen:       map[sinkKey]bool{},
	}
	for round, changed := 0, true; changed && round < 1000; round++ {
		changed = e.propagate()
		changed = e.collectSinks() || changed
	}
	memo.Store(prog, e)
	return e
}

// set updates v's classification, returning true on change.
func (e *engine) set(v *ssair.Value, m mask, why string) bool {
	old := e.masks[v]
	m |= old
	if m == old {
		return false
	}
	e.masks[v] = m
	if m&unbounded != 0 && e.why[v] == "" && why != "" {
		e.why[v] = why
	}
	return true
}

func (e *engine) propagate() bool {
	changed := false
	for _, fn := range e.prog.All {
		for _, v := range fn.Values {
			m, why := e.transfer(v)
			if e.set(v, m, why) {
				changed = true
			}
		}
		// Function summary: join of all returned values.
		var rm mask
		var rwhy string
		for _, ret := range fn.Returns {
			for _, rv := range ret {
				rm |= e.masks[rv]
				if rwhy == "" {
					rwhy = e.why[rv]
				}
			}
		}
		if rm|e.ret[fn] != e.ret[fn] {
			e.ret[fn] |= rm
			if e.retWhy[fn] == "" {
				e.retWhy[fn] = rwhy
			}
			changed = true
		}
	}
	return changed
}

func (e *engine) joinArgs(v *ssair.Value) (mask, string) {
	var m mask
	var why string
	for _, a := range v.Args {
		m |= e.masks[a]
		if why == "" {
			why = e.why[a]
		}
	}
	return m, why
}

func (e *engine) transfer(v *ssair.Value) (mask, string) {
	switch v.Op {
	case ssair.OpConst, ssair.OpGlobal, ssair.OpMakeMap, ssair.OpMakeSlice,
		ssair.OpMakeChan, ssair.OpClosure:
		return 0, ""
	case ssair.OpParam:
		if requestDerived(v.Type) {
			return unbounded, "request-derived input"
		}
		return paramBit(v.AuxInt), ""
	case ssair.OpCall:
		return e.transferCall(v)
	default:
		// Field reads, phis, conversions, concatenation, extracts,
		// ranges, frees: exactly as bounded as their inputs.
		return e.joinArgs(v)
	}
}

func (e *engine) transferCall(v *ssair.Value) (mask, string) {
	f := v.Callee
	if f == nil {
		if len(v.Args) > 0 && v.Args[0].Op == ssair.OpClosure && v.Args[0].Closure != nil {
			return e.substitute(v.Args[0].Closure, v, 1)
		}
		return e.joinArgs(v)
	}
	switch {
	case ssair.MethodOn(f, dagPath, "Graph", "Name"):
		return unbounded, "dag.Graph.Name() (caller-supplied graph name)"
	case isErrorMethod(f):
		return unbounded, "error text"
	case ssair.PkgFunc(f, "os", "Getenv"):
		return unbounded, "environment"
	case ssair.PkgFunc(f, "strconv", "Itoa", "FormatInt", "FormatUint", "FormatFloat", "FormatBool"):
		return 0, "" // numeric conversions: status codes, stage indices
	case isNameMethod(f):
		return 0, "" // registry-table convention: Name() draws from a finite set
	}
	if target := e.prog.Funcs[f]; target != nil {
		return e.substitute(target, v, 0)
	}
	// Unknown (stdlib) call: as bounded as its inputs.
	return e.joinArgs(v)
}

// substitute maps target's return summary through the call's
// arguments. argBase skips the closure value for dynamic calls.
func (e *engine) substitute(target *ssair.Func, call *ssair.Value, argBase int) (mask, string) {
	rm := e.ret[target]
	var m mask
	var why string
	if rm&unbounded != 0 {
		m |= unbounded
		why = e.retWhy[target]
	}
	for i := 0; i < len(target.Params); i++ {
		if rm&paramBit(int64(i)) == 0 {
			continue
		}
		am, awhy := e.argClass(target, call, argBase, i)
		m |= am
		if why == "" {
			why = awhy
		}
	}
	return m, why
}

// argClass classifies the call argument(s) feeding target's parameter
// i, folding variadic overflow onto the last parameter.
func (e *engine) argClass(target *ssair.Func, call *ssair.Value, argBase, i int) (mask, string) {
	var m mask
	var why string
	join := func(a *ssair.Value) {
		m |= e.masks[a]
		if why == "" {
			why = e.why[a]
		}
	}
	last := len(target.Params) - 1
	variadic := target.Sig != nil && target.Sig.Variadic()
	for ai := argBase; ai < len(call.Args); ai++ {
		pi := ai - argBase
		if pi == i || (variadic && i == last && pi >= last) {
			join(call.Args[ai])
		}
	}
	return m, why
}

// ---- origin predicates ----

func requestDerived(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch obj.Pkg().Path() {
	case "net/http":
		return obj.Name() == "Request" || obj.Name() == "Header"
	case "net/url":
		return obj.Name() == "Values" || obj.Name() == "URL"
	}
	return false
}

// isErrorMethod matches any niladic Error() string method.
func isErrorMethod(f *types.Func) bool {
	return isStringGetter(f, "Error")
}

// isNameMethod matches niladic Name() string methods — the registry
// convention for finite heuristic name tables. dag.Graph.Name is
// excluded by transferCall before this runs.
func isNameMethod(f *types.Func) bool {
	return isStringGetter(f, "Name")
}

func isStringGetter(f *types.Func, name string) bool {
	if f.Name() != name {
		return false
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil || sig.Params().Len() != 0 || sig.Results().Len() != 1 {
		return false
	}
	b, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

// ---- sinks ----

func (e *engine) collectSinks() bool {
	changed := false
	sinkArg := func(fn *ssair.Func, v, arg *ssair.Value, what string) {
		m := e.masks[arg]
		if m&unbounded != 0 {
			why := e.why[arg]
			if why == "" {
				why = "an unbounded source"
			}
			changed = e.addFinding(fn, v.Pos,
				"metric label value derives from "+why+" — "+what+" mints a time series per distinct value; use a finite name table") || changed
		}
		if pb := m &^ unbounded; pb != 0 {
			if e.sinkParams[fn]|pb != e.sinkParams[fn] {
				e.sinkParams[fn] |= pb
				changed = true
			}
		}
	}

	for _, fn := range e.prog.All {
		for _, v := range fn.Values {
			switch v.Op {
			case ssair.OpCall:
				if v.Callee != nil && ssair.PkgFunc(v.Callee, obsPath, "L") {
					// The constructor is the canonical sink; the
					// generic sink-parameter path below would only
					// duplicate it (obs.L's own body marks its value
					// parameter as a sink).
					if len(v.Args) >= 2 {
						sinkArg(fn, v, v.Args[1], "obs.L")
					}
					continue
				}
				// Calls whose parameters are label sinks downstream.
				target := e.prog.Funcs[v.Callee]
				if target == nil && v.Callee == nil && len(v.Args) > 0 && v.Args[0].Op == ssair.OpClosure {
					target = v.Args[0].Closure
				}
				if target != nil {
					if sp := e.sinkParams[target]; sp != 0 {
						argBase := 0
						if v.Callee == nil {
							argBase = 1
						}
						for i := 0; i < len(target.Params); i++ {
							if sp&paramBit(int64(i)) == 0 {
								continue
							}
							am, awhy := e.argClass(target, v, argBase, i)
							if am&unbounded != 0 {
								if awhy == "" {
									awhy = "an unbounded source"
								}
								changed = e.addFinding(fn, v.Pos,
									"metric label value derives from "+awhy+" (flows into an obs label via "+target.Name+")") || changed
							}
							if pb := am &^ unbounded; pb != 0 {
								if e.sinkParams[fn]|pb != e.sinkParams[fn] {
									e.sinkParams[fn] |= pb
									changed = true
								}
							}
						}
					}
				}
			case ssair.OpComposite:
				if arg, ok := e.labelValueArg(fn, v); ok {
					sinkArg(fn, v, arg, "an obs.Label literal")
				}
			}
		}
	}
	return changed
}

// labelValueArg returns the ssair value of the Value field of an
// obs.Label composite literal.
func (e *engine) labelValueArg(fn *ssair.Func, v *ssair.Value) (*ssair.Value, bool) {
	t := v.Type
	if t == nil {
		return nil, false
	}
	n, ok := types.Unalias(t).(*types.Named)
	if !ok || n.Obj().Name() != "Label" || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != obsPath {
		return nil, false
	}
	file := e.prog.FileFor(fn, v.Pos)
	if file == nil {
		return nil, false
	}
	var lit *ast.CompositeLit
	ast.Inspect(file, func(node ast.Node) bool {
		if node == nil || lit != nil {
			return false
		}
		if cl, ok := node.(*ast.CompositeLit); ok && cl.Pos() == v.Pos {
			lit = cl
			return false
		}
		return node.Pos() <= v.Pos && v.Pos < node.End()
	})
	if lit == nil {
		return nil, false
	}
	// Struct composite lowering emits one arg per element, in source
	// order, keys skipped — so Elts index == Args index.
	for i, el := range lit.Elts {
		if i >= len(v.Args) {
			break
		}
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			if id, ok := kv.Key.(*ast.Ident); ok && id.Name == "Value" {
				return v.Args[i], true
			}
			continue
		}
		if i == 1 { // positional Label{key, value}
			return v.Args[i], true
		}
	}
	return nil, false
}

func (e *engine) addFinding(fn *ssair.Func, pos token.Pos, msg string) bool {
	key := sinkKey{pos: pos, msg: msg}
	if e.seen[key] {
		return false
	}
	e.seen[key] = true
	e.findings = append(e.findings, finding{fn: fn, pos: pos, msg: msg})
	return true
}
