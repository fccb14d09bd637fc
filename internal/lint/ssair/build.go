package ssair

import (
	"go/ast"
	"go/token"
	"go/types"

	"schedcomp/internal/lint"
)

// builder lowers one function body to SSA. It implements the
// on-the-fly SSA construction of Braun et al.: blocks are sealed once
// all their predecessors are known, and variable reads in unsealed
// blocks create incomplete phis that are completed at sealing time.
// Anything the builder does not model precisely degrades to a
// conservative over-approximation (extra Args on a value, or
// fn.Approx), never to a panic.
type builder struct {
	prog      *Program
	pkg       *lint.Package
	info      *types.Info
	fn        *Func
	fnScope   *types.Scope
	cur       *Block
	targets   []*target
	selectN   int64  // >0 while building a select comm statement
	selectAux string // "select" or "select-default" while building a comm statement
}

// target is one enclosing break/continue destination.
type target struct {
	label string
	brk   *Block
	cont  *Block // nil for switch/select
}

// buildFunc lowers one declared function or method.
func (p *Program) buildFunc(pkg *lint.Package, obj *types.Func, fd *ast.FuncDecl) {
	sig, _ := obj.Type().(*types.Signature)
	fn := &Func{
		Obj:    obj,
		Name:   obj.FullName(),
		Pkg:    pkg,
		Sig:    sig,
		decl:   fd,
		writes: map[*types.Var][]*Value{},
	}
	p.Funcs[obj] = fn
	start := len(p.All)
	p.All = append(p.All, fn)
	b := &builder{prog: p, pkg: pkg, info: pkg.TypesInfo, fn: fn}
	b.buildBody(fd.Type, fd.Body, sig)
	// Patch free-variable reads of this function's closures now that
	// every write of every enclosing function has been recorded.
	for _, f := range p.All[start:] {
		for _, free := range f.frees {
			for a := f.Parent; a != nil; a = a.Parent {
				if ws := a.writes[free.Var]; len(ws) > 0 {
					free.Args = ws
					break
				}
			}
		}
	}
}

func (b *builder) buildBody(ft *ast.FuncType, body *ast.BlockStmt, sig *types.Signature) {
	b.fnScope = b.info.Scopes[ft]
	entry := b.newBlock(0, true)
	b.cur = entry
	idx := int64(0)
	if sig != nil && sig.Recv() != nil {
		pv := b.emit(OpParam, sig.Recv().Type(), sig.Recv().Pos())
		pv.Var, pv.AuxInt = sig.Recv(), idx
		idx++
		b.fn.Params = append(b.fn.Params, pv)
		b.writeVar(sig.Recv(), pv)
	}
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			prm := sig.Params().At(i)
			pv := b.emit(OpParam, prm.Type(), prm.Pos())
			pv.Var, pv.AuxInt = prm, idx
			idx++
			b.fn.Params = append(b.fn.Params, pv)
			b.writeVar(prm, pv)
		}
		for i := 0; i < sig.Results().Len(); i++ {
			r := sig.Results().At(i)
			if r.Name() != "" && r.Name() != "_" {
				b.writeVar(r, b.emit(OpConst, r.Type(), r.Pos()))
			}
		}
	}
	if body != nil {
		b.stmtList(body.List)
	}
}

// ---- blocks, variables, values ----

func (b *builder) newBlock(depth int, sealed bool) *Block {
	blk := &Block{
		Index:      len(b.fn.Blocks),
		LoopDepth:  depth,
		sealed:     sealed,
		incomplete: map[*types.Var]*Value{},
		defs:       map[*types.Var]*Value{},
	}
	b.fn.Blocks = append(b.fn.Blocks, blk)
	return blk
}

// blockFrom creates a sealed block whose single predecessor is pred.
func (b *builder) blockFrom(pred *Block, depth int) *Block {
	blk := b.newBlock(depth, false)
	b.jump(pred, blk)
	b.seal(blk)
	return blk
}

// block returns the current block, materializing an unreachable one
// for code after a return/break so expression lowering never needs a
// nil check.
func (b *builder) block() *Block {
	if b.cur == nil {
		b.cur = b.newBlock(0, true)
	}
	return b.cur
}

func (b *builder) jump(from, to *Block) {
	if from == nil {
		return
	}
	to.Preds = append(to.Preds, from)
}

func (b *builder) seal(blk *Block) {
	if blk.sealed {
		return
	}
	blk.sealed = true
	for _, v := range blk.incompleteOrder {
		b.addPhiOperands(v, blk.incomplete[v], blk)
	}
	blk.incomplete, blk.incompleteOrder = nil, nil
	for _, phi := range blk.phis {
		phi.Ctrl = blk.ctrlConds
	}
}

func (b *builder) emit(op Op, t types.Type, pos token.Pos, args ...*Value) *Value {
	blk := b.block()
	return b.emitIn(blk, op, t, pos, args...)
}

func (b *builder) emitIn(blk *Block, op Op, t types.Type, pos token.Pos, args ...*Value) *Value {
	v := &Value{
		ID:        b.prog.nextID,
		Op:        op,
		Fn:        b.fn,
		Block:     blk,
		Args:      args,
		Type:      t,
		Pos:       pos,
		ArgIndex:  -1,
		LoopDepth: blk.LoopDepth,
	}
	b.prog.nextID++
	blk.Values = append(blk.Values, v)
	b.fn.Values = append(b.fn.Values, v)
	return v
}

func (b *builder) newPhi(v *types.Var, blk *Block) *Value {
	phi := b.emitIn(blk, OpPhi, v.Type(), v.Pos())
	phi.Var = v
	blk.phis = append(blk.phis, phi)
	if blk.sealed {
		phi.Ctrl = blk.ctrlConds
	}
	return phi
}

// isPkgLevel reports whether v is a package-level variable.
func isPkgLevel(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// localTo reports whether v is declared inside the function being
// built (as opposed to captured from an enclosing function).
func (b *builder) localTo(v *types.Var) bool {
	for s := v.Parent(); s != nil; s = s.Parent() {
		if s == b.fnScope {
			return true
		}
	}
	return false
}

func (b *builder) writeVar(v *types.Var, val *Value) {
	if v == nil || val == nil {
		return
	}
	if isPkgLevel(v) {
		b.prog.globalWrites[v] = append(b.prog.globalWrites[v], val)
		return
	}
	b.block().defs[v] = val
	b.fn.writes[v] = append(b.fn.writes[v], val)
}

func (b *builder) readVar(v *types.Var, blk *Block) *Value {
	if d, ok := blk.defs[v]; ok {
		return d
	}
	var val *Value
	switch {
	case !blk.sealed:
		phi := b.newPhi(v, blk)
		blk.incomplete[v] = phi
		blk.incompleteOrder = append(blk.incompleteOrder, v)
		val = phi
	case len(blk.Preds) == 1:
		val = b.readVar(v, blk.Preds[0])
	case len(blk.Preds) == 0:
		if b.fn.Parent != nil && !b.localTo(v) {
			// Free variable of a closure: its Args are patched to the
			// defining function's writes once that function is built.
			val = b.emitIn(blk, OpFreeVar, v.Type(), v.Pos())
			val.Var = v
			b.fn.frees = append(b.fn.frees, val)
		} else {
			// Zero value (var read before any write, or unreachable).
			val = b.emitIn(blk, OpConst, v.Type(), v.Pos())
		}
	default:
		phi := b.newPhi(v, blk)
		blk.defs[v] = phi
		b.addPhiOperands(v, phi, blk)
		return phi
	}
	blk.defs[v] = val
	return val
}

func (b *builder) addPhiOperands(v *types.Var, phi *Value, blk *Block) {
	for _, pred := range blk.Preds {
		phi.Args = append(phi.Args, b.readVar(v, pred))
	}
}

func (b *builder) typeOf(e ast.Expr) types.Type {
	// Info.TypeOf falls back to Defs/Uses for idents (range-clause
	// variables have no Types entry, only a Defs one).
	return b.info.TypeOf(e)
}

// rootVar returns the local or package-level variable at the base of
// an lvalue chain (x, x.f, x[i], *x, x[i:j]), or nil.
func (b *builder) rootVar(e ast.Expr) *types.Var {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := b.info.Uses[x]
			if obj == nil {
				obj = b.info.Defs[x]
			}
			v, _ := obj.(*types.Var)
			return v
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			// Only field chains; a qualified package ident has no root.
			if b.info.Selections[x] == nil {
				return nil
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// ---- statements ----

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)
	case *ast.ExprStmt:
		b.expr(s.X)
	case *ast.AssignStmt:
		b.assign(s)
	case *ast.IncDecStmt:
		old := b.expr(s.X)
		one := b.emit(OpConst, b.typeOf(s.X), s.Pos())
		nv := b.emit(OpBinOp, b.typeOf(s.X), s.Pos(), old, one)
		nv.Aux = s.Tok.String()
		b.assignTo(s.X, nv, s.Pos())
	case *ast.DeclStmt:
		b.declStmt(s)
	case *ast.IfStmt:
		b.ifStmt(s)
	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")
	case *ast.LabeledStmt:
		b.labeledStmt(s)
	case *ast.ReturnStmt:
		b.returnStmt(s)
	case *ast.BranchStmt:
		b.branchStmt(s)
	case *ast.GoStmt:
		if v := b.expr(s.Call); v.Op == OpCall {
			v.Aux = "go"
		}
	case *ast.DeferStmt:
		if v := b.expr(s.Call); v.Op == OpCall {
			v.Aux = "defer"
		}
	case *ast.SendStmt:
		ch := b.expr(s.Chan)
		val := b.expr(s.Value)
		snd := b.emit(OpSend, b.typeOf(s.Chan), s.Pos(), ch, val)
		if b.selectN > 0 {
			snd.Aux, snd.AuxInt = b.selectAux, b.selectN
		}
		if root := b.rootVar(s.Chan); root != nil {
			st := b.emit(OpStore, b.typeOf(s.Chan), s.Pos(), ch, val)
			st.Var = root
			b.writeVar(root, st)
		}
	case *ast.EmptyStmt:
	default:
		b.fn.Approx = true
	}
}

func (b *builder) labeledStmt(s *ast.LabeledStmt) {
	label := s.Label.Name
	switch inner := s.Stmt.(type) {
	case *ast.ForStmt:
		b.forStmt(inner, label)
	case *ast.RangeStmt:
		b.rangeStmt(inner, label)
	case *ast.SwitchStmt:
		b.switchStmt(inner, label)
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(inner, label)
	case *ast.SelectStmt:
		b.selectStmt(inner, label)
	default:
		// A bare label (goto target): the CFG cannot represent the
		// jump precisely, so mark the function approximate.
		b.fn.Approx = true
		b.stmt(s.Stmt)
	}
}

func (b *builder) branchStmt(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if label == "" || t.label == label {
				b.jump(b.cur, t.brk)
				b.cur = nil
				return
			}
		}
		b.cur = nil
	case token.CONTINUE:
		for i := len(b.targets) - 1; i >= 0; i-- {
			t := b.targets[i]
			if t.cont != nil && (label == "" || t.label == label) {
				b.jump(b.cur, t.cont)
				b.cur = nil
				return
			}
		}
		b.cur = nil
	case token.GOTO:
		b.fn.Approx = true
		b.cur = nil
	case token.FALLTHROUGH:
		// Handled structurally by switchStmt.
	}
}

func (b *builder) declStmt(s *ast.DeclStmt) {
	gd, ok := s.Decl.(*ast.GenDecl)
	if !ok || gd.Tok != token.VAR {
		return
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Values) == 1 && len(vs.Names) > 1 {
			// var a, b = f()
			call := b.expr(vs.Values[0])
			for i, name := range vs.Names {
				ext := b.emit(OpExtract, b.typeOf(name), name.Pos(), call)
				ext.AuxInt = int64(i)
				b.assignTo(name, ext, name.Pos())
			}
			continue
		}
		for i, name := range vs.Names {
			var val *Value
			if i < len(vs.Values) {
				val = b.expr(vs.Values[i])
			} else {
				val = b.emit(OpConst, b.typeOf(name), name.Pos())
			}
			b.assignTo(name, val, name.Pos())
		}
	}
}

func (b *builder) assign(s *ast.AssignStmt) {
	if s.Tok != token.ASSIGN && s.Tok != token.DEFINE {
		// x op= y
		old := b.expr(s.Lhs[0])
		rhs := b.expr(s.Rhs[0])
		nv := b.emit(OpBinOp, b.typeOf(s.Lhs[0]), s.Pos(), old, rhs)
		nv.Aux = s.Tok.String()
		b.assignTo(s.Lhs[0], nv, s.Pos())
		return
	}
	if len(s.Lhs) > 1 && len(s.Rhs) == 1 {
		rhs := ast.Unparen(s.Rhs[0])
		if _, isCall := rhs.(*ast.CallExpr); isCall {
			call := b.expr(rhs)
			for i, lhs := range s.Lhs {
				ext := b.emit(OpExtract, b.typeOf(lhs), lhs.Pos(), call)
				ext.AuxInt = int64(i)
				b.assignTo(lhs, ext, lhs.Pos())
			}
			return
		}
		// v, ok := m[k] / <-ch / x.(T): the ok bit shares the taint of
		// the main value, so assigning the same SSA value to both
		// sides is a sound over-approximation.
		val := b.expr(s.Rhs[0])
		for _, lhs := range s.Lhs {
			b.assignTo(lhs, val, s.Pos())
		}
		return
	}
	vals := make([]*Value, len(s.Rhs))
	for i := range s.Rhs {
		vals[i] = b.expr(s.Rhs[i])
	}
	for i, lhs := range s.Lhs {
		if i < len(vals) {
			b.assignTo(lhs, vals[i], s.Pos())
		}
	}
}

// assignTo routes a value into an lvalue: an SSA variable write for
// identifiers, an OpStore new-version of the root variable for
// composite stores.
func (b *builder) assignTo(lhs ast.Expr, val *Value, pos token.Pos) {
	lhs = ast.Unparen(lhs)
	if id, ok := lhs.(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		obj := b.info.Defs[id]
		if obj == nil {
			obj = b.info.Uses[id]
		}
		if v, ok := obj.(*types.Var); ok {
			if isPkgLevel(v) {
				// A package-level variable outlives the call, so the
				// write is an escape like any composite store: emit an
				// OpStore over the old global value so per-function
				// sink scans see it, and record the store as the
				// global's new version for cross-function reads.
				old := b.emit(OpGlobal, v.Type(), id.Pos())
				old.Var = v
				st := b.emit(OpStore, b.typeOf(lhs), pos, old, val)
				st.Var = v
				b.writeVar(v, st)
				return
			}
			b.writeVar(v, val)
		}
		return
	}
	// Composite store: read the location (which evaluates the base and
	// any indices, capturing their taint), then record a new version
	// of the root variable combining the old state and the new value.
	prev := b.expr(lhs)
	root := b.rootVar(lhs)
	st := b.emit(OpStore, b.typeOf(lhs), pos, prev, val)
	st.Var = root
	if root != nil {
		b.writeVar(root, st)
	}
}

func (b *builder) returnStmt(s *ast.ReturnStmt) {
	var res []*Value
	if len(s.Results) > 0 {
		for _, r := range s.Results {
			res = append(res, b.expr(r))
		}
	} else if b.fn.Sig != nil {
		for i := 0; i < b.fn.Sig.Results().Len(); i++ {
			r := b.fn.Sig.Results().At(i)
			if r.Name() != "" && r.Name() != "_" {
				res = append(res, b.readVar(r, b.block()))
			}
		}
	}
	b.fn.Returns = append(b.fn.Returns, res)
	b.cur = nil
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	cond := b.expr(s.Cond)
	head := b.block()
	depth := head.LoopDepth
	then := b.blockFrom(head, depth)
	merge := b.newBlock(depth, false)
	merge.ctrlConds = []*Value{cond}
	var els *Block
	if s.Else != nil {
		els = b.blockFrom(head, depth)
	} else {
		b.jump(head, merge)
	}
	b.cur = then
	b.stmtList(s.Body.List)
	b.jump(b.cur, merge)
	if els != nil {
		b.cur = els
		b.stmt(s.Else)
		b.jump(b.cur, merge)
	}
	b.seal(merge)
	b.cur = merge
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	head := b.block()
	depth := head.LoopDepth
	if s.Init != nil {
		b.stmt(s.Init)
	}
	header := b.newBlock(depth+1, false) // unsealed until the back edge exists
	b.jump(b.cur, header)
	b.cur = header
	var cond *Value
	if s.Cond != nil {
		cond = b.expr(s.Cond)
		header.ctrlConds = []*Value{cond}
	}
	body := b.blockFrom(b.block(), depth+1)
	exit := b.newBlock(depth, false)
	b.jump(header, exit)
	if cond != nil {
		exit.ctrlConds = []*Value{cond}
	}
	cont := header
	var post *Block
	if s.Post != nil {
		post = b.newBlock(depth+1, false)
		cont = post
	}
	b.targets = append(b.targets, &target{label: label, brk: exit, cont: cont})
	b.cur = body
	b.stmtList(s.Body.List)
	b.targets = b.targets[:len(b.targets)-1]
	if post != nil {
		b.jump(b.cur, post)
		b.seal(post)
		b.cur = post
		b.stmt(s.Post)
	}
	b.jump(b.cur, header)
	b.seal(header)
	b.seal(exit)
	b.cur = exit
}

// rangeKind classifies the collection of a range statement.
func rangeKind(t types.Type) string {
	if t == nil {
		return "unknown"
	}
	switch u := t.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Slice, *types.Array:
		return "slice"
	case *types.Pointer:
		if _, ok := u.Elem().Underlying().(*types.Array); ok {
			return "slice"
		}
		return "unknown"
	case *types.Chan:
		return "chan"
	case *types.Basic:
		if u.Info()&types.IsString != 0 {
			return "string"
		}
		return "int"
	case *types.Signature:
		return "func"
	}
	return "unknown"
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.block()
	depth := head.LoopDepth
	coll := b.expr(s.X)
	kind := rangeKind(b.typeOf(s.X))
	header := b.newBlock(depth+1, false)
	b.jump(b.cur, header)
	b.cur = header
	key := b.emit(OpRangeKey, b.typeOf(s.Key), s.Pos(), coll)
	key.Aux = kind
	if s.Key != nil {
		b.assignTo(s.Key, key, s.Pos())
	}
	if s.Value != nil {
		val := b.emit(OpRangeVal, b.typeOf(s.Value), s.Pos(), coll)
		val.Aux = kind
		b.assignTo(s.Value, val, s.Pos())
	}
	body := b.blockFrom(header, depth+1)
	exit := b.newBlock(depth, false)
	b.jump(header, exit)
	b.targets = append(b.targets, &target{label: label, brk: exit, cont: header})
	b.cur = body
	b.stmtList(s.Body.List)
	b.targets = b.targets[:len(b.targets)-1]
	b.jump(b.cur, header)
	b.seal(header)
	b.seal(exit)
	b.cur = exit
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.block()
	depth := head.LoopDepth
	var tag *Value
	if s.Tag != nil {
		tag = b.expr(s.Tag)
		head = b.block()
	}
	merge := b.newBlock(depth, false)
	if tag != nil {
		merge.ctrlConds = append(merge.ctrlConds, tag)
	}
	b.targets = append(b.targets, &target{label: label, brk: merge})
	clauses := s.Body.List
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i := range clauses {
		blocks[i] = b.newBlock(depth, false)
		b.jump(head, blocks[i])
	}
	for i, c := range clauses {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		// Earlier clauses may have added a fallthrough edge; all preds
		// of this case block are known by now.
		b.seal(blocks[i])
		b.cur = blocks[i]
		for _, e := range cc.List {
			merge.ctrlConds = append(merge.ctrlConds, b.expr(e))
		}
		falls := false
		if n := len(cc.Body); n > 0 {
			if br, ok := cc.Body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				falls = i+1 < len(clauses)
			}
		}
		b.stmtList(cc.Body)
		if falls {
			b.jump(b.cur, blocks[i+1])
			b.cur = nil
		} else {
			b.jump(b.cur, merge)
		}
	}
	if !hasDefault {
		b.jump(head, merge)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.seal(merge)
	b.cur = merge
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	var tag *Value
	switch a := s.Assign.(type) {
	case *ast.AssignStmt:
		if ta, ok := ast.Unparen(a.Rhs[0]).(*ast.TypeAssertExpr); ok {
			tag = b.expr(ta.X)
		}
	case *ast.ExprStmt:
		if ta, ok := ast.Unparen(a.X).(*ast.TypeAssertExpr); ok {
			tag = b.expr(ta.X)
		}
	}
	if tag == nil {
		tag = b.emit(OpConst, nil, s.Pos())
	}
	head := b.block()
	depth := head.LoopDepth
	merge := b.newBlock(depth, false)
	merge.ctrlConds = []*Value{tag}
	b.targets = append(b.targets, &target{label: label, brk: merge})
	hasDefault := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.blockFrom(head, depth)
		b.cur = blk
		if obj, ok := b.info.Implicits[cc].(*types.Var); ok {
			ta := b.emit(OpTypeAssert, obj.Type(), cc.Pos(), tag)
			b.writeVar(obj, ta)
		}
		b.stmtList(cc.Body)
		b.jump(b.cur, merge)
	}
	if !hasDefault {
		b.jump(head, merge)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.seal(merge)
	b.cur = merge
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.block()
	depth := head.LoopDepth
	n := int64(len(s.Body.List))
	choice := b.emit(OpSelect, nil, s.Pos())
	choice.AuxInt = n
	commAux := "select"
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			choice.Aux = "default"
			commAux = "select-default"
		}
	}
	merge := b.newBlock(depth, false)
	merge.ctrlConds = []*Value{choice}
	b.targets = append(b.targets, &target{label: label, brk: merge})
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		blk := b.blockFrom(head, depth)
		b.cur = blk
		if cc.Comm != nil {
			b.selectN, b.selectAux = n, commAux
			b.stmt(cc.Comm)
			b.selectN, b.selectAux = 0, ""
		}
		b.stmtList(cc.Body)
		b.jump(b.cur, merge)
	}
	if len(s.Body.List) == 0 {
		b.jump(head, merge)
	}
	b.targets = b.targets[:len(b.targets)-1]
	b.seal(merge)
	b.cur = merge
}
