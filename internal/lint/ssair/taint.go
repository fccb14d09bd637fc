package ssair

import (
	"go/token"
	"go/types"
	"sort"

	"schedcomp/internal/lint"
)

// SourceKind classifies a nondeterminism source.
type SourceKind uint8

const (
	KindMapIter  SourceKind = iota // map (or sync.Map) iteration order
	KindSelect                     // select arm choice
	KindChanRecv                   // cross-goroutine receive ordering
	KindTime                       // wall-clock reads
	KindRand                       // unseeded math/rand
)

// Order reports whether the nondeterminism is an *ordering* of
// otherwise-deterministic values, which sorting re-determinizes. A
// sort sanitizer clears Order kinds only: sorting a slice of
// time.Now() samples does not make the values deterministic.
func (k SourceKind) Order() bool {
	return k == KindMapIter || k == KindSelect || k == KindChanRecv
}

func (k SourceKind) String() string {
	switch k {
	case KindMapIter:
		return "map-iteration"
	case KindSelect:
		return "select"
	case KindChanRecv:
		return "chan-recv"
	case KindTime:
		return "time"
	case KindRand:
		return "rand"
	}
	return "unknown"
}

// Source is one nondeterminism introduction point.
type Source struct {
	ID         int
	Value      *Value
	Kind       SourceKind
	Desc       string
	Pos        token.Pos
	Fn         *Func
	Suppressed bool // //lint:sorted at the source line
}

// Sink is one scheduling-decision input.
type Sink struct {
	ID    int
	Value *Value
	Desc  string
	Pos   token.Pos
	Fn    *Func
}

// Flow is one source-to-sink taint path.
type Flow struct {
	Source *Source
	Sink   *Sink
}

// TaintResult is the whole-program taint analysis outcome.
type TaintResult struct {
	Sources []*Source
	Sinks   []*Sink
	Flows   []*Flow // sorted by sink position, then source position
}

// Taint runs the whole-program nondeterminism taint analysis over
// every package in the program, once; later calls return the same
// result.
func (p *Program) Taint() *TaintResult {
	if p.taint == nil {
		e := newEngine(p)
		e.run()
		p.taint = e.result()
	}
	return p.taint
}

// ---- taint lattice ----

// tset is the taint of one SSA value: a bitset of global source IDs
// plus two parameter masks that make function summaries polymorphic in
// their arguments. par marks parameters whose taint reaches here
// unmodified; parSan marks parameters whose taint reaches here only
// through an order sanitizer (sorting), so that at the call site the
// argument's Order-kind bits are dropped.
type tset struct {
	src    []uint64
	par    uint64
	parSan uint64
}

type summary struct {
	result tset   // taint of every returned value, combined
	stored []tset // taint the function stores into param i's referent
	// argSinks[i] lists sinks that param i's taint reaches; the San
	// variant lists sinks reached only through an order sanitizer.
	argSinks    map[int]map[int]bool
	argSinksSan map[int]map[int]bool
}

type engine struct {
	prog      *Program
	nw        int // words per source bitset
	sources   []*Source
	sinks     []*Sink
	srcOf     map[*Value]*Source
	sinksByFn map[*Func][]*Sink
	orderMask []uint64 // bits of Order()-kind sources
	val       []*tset  // by Value.ID
	sinkTaint [][]uint64
	sums      map[*Func]*summary
	changed   bool
}

func newEngine(p *Program) *engine {
	return &engine{
		prog:      p,
		srcOf:     map[*Value]*Source{},
		sinksByFn: map[*Func][]*Sink{},
		sums:      map[*Func]*summary{},
	}
}

func (e *engine) run() {
	e.collectSources()
	e.collectSinks()
	e.nw = (len(e.sources) + 63) / 64
	if e.nw == 0 {
		e.nw = 1
	}
	e.orderMask = make([]uint64, e.nw)
	for _, s := range e.sources {
		if s.Kind.Order() {
			e.orderMask[s.ID/64] |= 1 << (s.ID % 64)
		}
	}
	e.val = make([]*tset, e.prog.nextID)
	e.sinkTaint = make([][]uint64, len(e.sinks))
	for i := range e.sinkTaint {
		e.sinkTaint[i] = make([]uint64, e.nw)
	}
	// The lattice is finite and every transfer is monotone, so this
	// terminates; the bound is a safety net only.
	for iter := 0; iter < 1000; iter++ {
		e.changed = false
		for _, fn := range e.prog.All {
			e.flowFn(fn)
		}
		if !e.changed {
			return
		}
	}
}

func (e *engine) t(v *Value) *tset {
	if v == nil {
		return &tset{src: make([]uint64, e.nw)}
	}
	if e.val[v.ID] == nil {
		e.val[v.ID] = &tset{src: make([]uint64, e.nw)}
	}
	return e.val[v.ID]
}

func (e *engine) or(dst, src *tset) {
	for i := range dst.src {
		if dst.src[i]|src.src[i] != dst.src[i] {
			dst.src[i] |= src.src[i]
			e.changed = true
		}
	}
	if dst.par|src.par != dst.par {
		dst.par |= src.par
		e.changed = true
	}
	if dst.parSan|src.parSan != dst.parSan {
		dst.parSan |= src.parSan
		e.changed = true
	}
}

// orSanitized folds src into dst through an order sanitizer: ordering
// sources are cleared and parameter channels are demoted to sanitized.
func (e *engine) orSanitized(dst, src *tset) {
	for i := range dst.src {
		add := src.src[i] &^ e.orderMask[i]
		if dst.src[i]|add != dst.src[i] {
			dst.src[i] |= add
			e.changed = true
		}
	}
	san := src.par | src.parSan
	if dst.parSan|san != dst.parSan {
		dst.parSan |= san
		e.changed = true
	}
}

// orSrcOnly folds only global source bits into dst, dropping parameter
// channels. Used where the parameters of the producing function are
// not the parameters of the consuming one (globals, free variables,
// closure results).
func (e *engine) orSrcOnly(dst, src *tset) {
	for i := range dst.src {
		if dst.src[i]|src.src[i] != dst.src[i] {
			dst.src[i] |= src.src[i]
			e.changed = true
		}
	}
}

func (e *engine) setSrcBit(dst *tset, id int) {
	w, b := id/64, uint(id%64)
	if dst.src[w]&(1<<b) == 0 {
		dst.src[w] |= 1 << b
		e.changed = true
	}
}

// subst instantiates a callee-side tset at a call site: parameter bits
// are replaced by the taint of the corresponding arguments.
func (e *engine) subst(dst *tset, from *tset, args []*Value) {
	e.orSrcOnly(dst, from)
	eachBit(from.par, func(i int) {
		if i < len(args) {
			e.or(dst, e.t(args[i]))
		}
	})
	eachBit(from.parSan, func(i int) {
		if i < len(args) {
			e.orSanitized(dst, e.t(args[i]))
		}
	})
}

func eachBit(mask uint64, f func(int)) {
	for i := 0; mask != 0; i++ {
		if mask&1 != 0 {
			f(i)
		}
		mask >>= 1
	}
}

func (e *engine) sum(fn *Func) *summary {
	s := e.sums[fn]
	if s == nil {
		s = &summary{
			stored:      make([]tset, len(fn.Params)),
			argSinks:    map[int]map[int]bool{},
			argSinksSan: map[int]map[int]bool{},
		}
		s.result.src = make([]uint64, e.nw)
		for i := range s.stored {
			s.stored[i].src = make([]uint64, e.nw)
		}
		e.sums[fn] = s
	}
	return s
}

func (e *engine) calleeFunc(callee *types.Func) *Func {
	if callee == nil {
		return nil
	}
	return e.prog.Funcs[callee.Origin()]
}

// ---- per-function propagation ----

func (e *engine) flowFn(fn *Func) {
	for _, v := range fn.Values {
		e.transfer(v)
	}
	s := e.sum(fn)
	for _, ret := range fn.Returns {
		for _, rv := range ret {
			e.or(&s.result, e.t(rv))
		}
	}
	paramIdx := map[*types.Var]int{}
	for i, pv := range fn.Params {
		paramIdx[pv.Var] = i
	}
	for _, v := range fn.Values {
		if (v.Op == OpStore || v.Op == OpMutate) && v.Var != nil {
			if pi, ok := paramIdx[v.Var]; ok {
				e.or(&s.stored[pi], e.t(v))
			}
		}
	}
	for _, sk := range e.sinksByFn[fn] {
		e.sinkArrive(sk.ID, e.t(sk.Value), fn)
	}
	// Sinks reachable through callee parameters: the argument taint
	// arrives at the callee's sink, transitively.
	for _, v := range fn.Values {
		if v.Op != OpCall {
			continue
		}
		cf := e.calleeFunc(v.Callee)
		if cf == nil {
			continue
		}
		cs := e.sum(cf)
		for pi, sinkIDs := range cs.argSinks {
			if pi >= len(v.Args) {
				continue
			}
			at := e.t(v.Args[pi])
			for sid := range sinkIDs {
				e.sinkArrive(sid, at, fn)
			}
		}
		for pi, sinkIDs := range cs.argSinksSan {
			if pi >= len(v.Args) {
				continue
			}
			san := &tset{src: make([]uint64, e.nw)}
			e.orSanitized(san, e.t(v.Args[pi]))
			for sid := range sinkIDs {
				e.sinkArrive(sid, san, fn)
			}
		}
	}
}

// sinkArrive records taint t reaching sink sid inside fn: global
// source bits become flows, parameter bits become entries in fn's own
// argSinks summary so callers propagate in turn.
func (e *engine) sinkArrive(sid int, t *tset, fn *Func) {
	st := e.sinkTaint[sid]
	for i := range st {
		if st[i]|t.src[i] != st[i] {
			st[i] |= t.src[i]
			e.changed = true
		}
	}
	s := e.sum(fn)
	eachBit(t.par, func(i int) {
		if s.argSinks[i] == nil {
			s.argSinks[i] = map[int]bool{}
		}
		if !s.argSinks[i][sid] {
			s.argSinks[i][sid] = true
			e.changed = true
		}
	})
	eachBit(t.parSan, func(i int) {
		if s.argSinksSan[i] == nil {
			s.argSinksSan[i] = map[int]bool{}
		}
		if !s.argSinksSan[i][sid] {
			s.argSinksSan[i][sid] = true
			e.changed = true
		}
	})
}

func (e *engine) transfer(v *Value) {
	d := e.t(v)
	switch v.Op {
	case OpParam:
		if v.AuxInt < 64 {
			if d.par&(1<<uint(v.AuxInt)) == 0 {
				d.par |= 1 << uint(v.AuxInt)
				e.changed = true
			}
		}
	case OpConst:
	case OpFreeVar:
		for _, a := range v.Args {
			e.orSrcOnly(d, e.t(a))
		}
	case OpGlobal:
		for _, w := range e.prog.globalWrites[v.Var] {
			e.orSrcOnly(d, e.t(w))
		}
	case OpClosure:
		if v.Closure != nil {
			e.orSrcOnly(d, &e.sum(v.Closure).result)
		}
	case OpPhi:
		for _, a := range v.Args {
			e.or(d, e.t(a))
		}
		for _, c := range v.Ctrl {
			e.or(d, e.t(c))
		}
	case OpExtract:
		e.or(d, e.t(v.Args[0]))
	case OpCall:
		e.transferCall(v, d)
	case OpMutate:
		e.transferMutate(v, d)
	default:
		for _, a := range v.Args {
			e.or(d, e.t(a))
		}
		for _, c := range v.Ctrl {
			e.or(d, e.t(c))
		}
	}
	if src := e.srcOf[v]; src != nil && !src.Suppressed {
		e.setSrcBit(d, src.ID)
	}
}

func (e *engine) transferCall(v *Value, d *tset) {
	if v.Callee != nil {
		if isOrderSanitizer(v.Callee) {
			for _, a := range v.Args {
				e.orSanitized(d, e.t(a))
			}
			return
		}
		if cf := e.calleeFunc(v.Callee); cf != nil {
			e.subst(d, &e.sum(cf).result, v.Args)
			return
		}
	}
	// Unknown or dynamic callee: assume any argument may flow to the
	// result (the dynamic callee value itself is Args[0]).
	for _, a := range v.Args {
		e.or(d, e.t(a))
	}
}

func (e *engine) transferMutate(v *Value, d *tset) {
	old := e.t(v.Args[0])
	c := v.Call
	if c != nil && c.Callee != nil && isOrderSanitizer(c.Callee) {
		e.orSanitized(d, old)
		return
	}
	e.or(d, old)
	if c == nil {
		return
	}
	if c.Callee != nil {
		if cf := e.calleeFunc(c.Callee); cf != nil {
			s := e.sum(cf)
			if v.ArgIndex >= 0 && v.ArgIndex < len(s.stored) {
				e.subst(d, &s.stored[v.ArgIndex], c.Args)
			}
			return
		}
	}
	// Unknown callee: anything passed to the call may have been
	// stored into this argument's referent.
	for _, a := range c.Args {
		e.or(d, e.t(a))
	}
}

// isOrderSanitizer reports whether a call to f re-determinizes the
// *order* of its (slice) argument: the sort and slices sorting
// functions. Value-kind taint (time, rand) passes through.
func isOrderSanitizer(f *types.Func) bool {
	pkg := f.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "sort":
		switch f.Name() {
		case "Sort", "Stable", "Slice", "SliceStable", "Strings", "Ints", "Float64s":
			return true
		}
	case "slices":
		switch f.Name() {
		case "Sort", "SortFunc", "SortStableFunc", "Sorted", "SortedFunc", "SortedStableFunc":
			return true
		}
	}
	return false
}

// ---- source and sink discovery ----

// methodOn reports whether f is the method name on type
// pkgPath.typeName (pointer or value receiver).
func methodOn(f *types.Func, pkgPath, typeName, name string) bool {
	if f.Name() != name {
		return false
	}
	sig, _ := f.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

func pkgFunc(f *types.Func, pkgPath string, names ...string) bool {
	if f.Pkg() == nil || f.Pkg().Path() != pkgPath {
		return false
	}
	if sig, _ := f.Type().(*types.Signature); sig == nil || sig.Recv() != nil {
		return false
	}
	for _, n := range names {
		if f.Name() == n {
			return true
		}
	}
	return false
}

func (e *engine) collectSources() {
	// Parameters of closures passed to sync.Map.Range receive entries
	// in nondeterministic order, exactly like a map range.
	rangeParams := map[*Value]bool{}
	for _, fn := range e.prog.All {
		for _, v := range fn.Values {
			if v.Op != OpCall || v.Callee == nil || !methodOn(v.Callee, "sync", "Map", "Range") {
				continue
			}
			for _, a := range v.Args[1:] {
				if a.Op == OpClosure && a.Closure != nil {
					for _, pv := range a.Closure.Params {
						rangeParams[pv] = true
					}
				}
			}
		}
	}
	add := func(v *Value, fn *Func, kind SourceKind, desc string) {
		s := &Source{
			ID:    len(e.sources),
			Value: v,
			Kind:  kind,
			Desc:  desc,
			Pos:   v.Pos,
			Fn:    fn,
		}
		if f := e.prog.FileFor(fn, v.Pos); f != nil {
			s.Suppressed = lint.AnnotatedIn(e.prog.Fset(), f, v.Pos, "sorted")
		}
		e.sources = append(e.sources, s)
		e.srcOf[v] = s
	}
	for _, fn := range e.prog.All {
		for _, v := range fn.Values {
			switch v.Op {
			case OpRangeKey, OpRangeVal:
				switch v.Aux {
				case "map":
					add(v, fn, KindMapIter, "map iteration order")
				case "chan":
					add(v, fn, KindChanRecv, "channel receive ordering")
				}
			case OpSelect:
				if v.AuxInt >= 2 {
					add(v, fn, KindSelect, "select arm choice")
				}
			case OpRecv:
				add(v, fn, KindChanRecv, "channel receive ordering")
			case OpParam:
				if rangeParams[v] {
					add(v, fn, KindMapIter, "sync.Map.Range iteration order")
				}
			case OpCall:
				if v.Callee == nil {
					continue
				}
				switch {
				case pkgFunc(v.Callee, "time", "Now", "Since", "Until"):
					add(v, fn, KindTime, "wall-clock time ("+"time."+v.Callee.Name()+")")
				case isPkgRandSource(v.Callee):
					add(v, fn, KindRand, "unseeded math/rand ("+v.Callee.Name()+")")
				}
			}
		}
	}
}

// isPkgRandSource reports whether f is a package-level math/rand
// function backed by the shared, unseeded global source. Constructors
// are excluded: rand.New(rand.NewSource(seed)) is the deterministic
// idiom this analyzer steers code toward.
func isPkgRandSource(f *types.Func) bool {
	pkg := f.Pkg()
	if pkg == nil {
		return false
	}
	if pkg.Path() != "math/rand" && pkg.Path() != "math/rand/v2" {
		return false
	}
	if sig, _ := f.Type().(*types.Signature); sig == nil || sig.Recv() != nil {
		return false
	}
	switch f.Name() {
	case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
		return false
	}
	return true
}

const schedPkgPath = "schedcomp/internal/sched"

// mechanismPkg reports whether fn lives in one of the schedule
// mechanism packages whose internals implement the sinks themselves.
func mechanismPkg(fn *Func) bool {
	if fn.Pkg == nil {
		return false
	}
	return fn.Pkg.Path == schedPkgPath || fn.Pkg.Path == "schedcomp/internal/pq"
}

func isPlacementType(t types.Type) bool {
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Placement" && obj.Pkg() != nil && obj.Pkg().Path() == schedPkgPath
}

func (e *engine) collectSinks() {
	add := func(v *Value, fn *Func, pos token.Pos, desc string) {
		s := &Sink{ID: len(e.sinks), Value: v, Desc: desc, Pos: pos, Fn: fn}
		e.sinks = append(e.sinks, s)
		e.sinksByFn[fn] = append(e.sinksByFn[fn], s)
	}
	for _, fn := range e.prog.All {
		for _, v := range fn.Values {
			switch v.Op {
			case OpCall:
				if v.Callee == nil {
					continue
				}
				switch {
				case methodOn(v.Callee, schedPkgPath, "Placement", "Assign"):
					for _, a := range v.Args[1:] {
						add(a, fn, v.Pos, "sched.Placement.Assign")
					}
				case methodOn(v.Callee, "schedcomp/internal/pq", "Heap", "Push"):
					for _, a := range v.Args[1:] {
						add(a, fn, v.Pos, "pq.Heap.Push item")
					}
				case pkgFunc(v.Callee, "schedcomp/internal/pq", "NewFrom"):
					for _, a := range v.Args[1:] {
						add(a, fn, v.Pos, "pq.NewFrom item")
					}
				}
			case OpStore:
				// Direct Placement surgery outside the mechanism
				// packages. Inside sched/pq the public entry points
				// (Assign, Push, ...) are the sinks — modeled at their
				// call sites — so internal stores are not re-reported.
				if v.Var != nil && isPlacementType(v.Var.Type()) && !mechanismPkg(fn) {
					add(v, fn, v.Pos, "store into sched.Placement")
				}
			case OpComposite:
				if v.Type != nil && isPlacementType(v.Type) && len(v.Args) > 0 && !mechanismPkg(fn) {
					add(v, fn, v.Pos, "sched.Placement literal")
				}
			}
		}
	}
}

func (e *engine) result() *TaintResult {
	res := &TaintResult{Sources: e.sources, Sinks: e.sinks}
	for _, sk := range e.sinks {
		st := e.sinkTaint[sk.ID]
		for _, src := range e.sources {
			if st[src.ID/64]&(1<<uint(src.ID%64)) != 0 {
				res.Flows = append(res.Flows, &Flow{Source: src, Sink: sk})
			}
		}
	}
	sort.Slice(res.Flows, func(i, j int) bool {
		a, b := res.Flows[i], res.Flows[j]
		if a.Sink.Pos != b.Sink.Pos {
			return a.Sink.Pos < b.Sink.Pos
		}
		return a.Source.Pos < b.Source.Pos
	})
	return res
}
