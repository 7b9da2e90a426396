package sdg

// Incremental construction (PR 9). A dependence graph is three layers:
// a node scaffolding fixed by (program, points-to result), per-method
// structure that depends only on a method's body (intraprocedural
// def-use edges, control dependences, the positions of its heap
// accesses and call sites), and global structure derived from the
// points-to result (call linking, heap pairing, statics, array
// lengths). BuildDelta caches the middle layer as base-relative
// templates keyed by method qualified name: an edit re-derives
// templates only for the changed methods, replays every context off
// its template, and recomputes the points-to-derived layer from the
// new (canonicalized) result.
//
// Byte-identity with a cold Build holds because a node's in-edge order
// is its emission order within a fixed phase sequence, and each in-edge
// category of a node has exactly one emitter: local/base edges come
// from the node's own instruction (template order = EachUse order),
// param/return edges arrive in (caller context, call instruction,
// canonical callee) order, heap edges in heap-index append order
// (context, instruction), and control edges from the node's own
// instruction's CDG rows. The replay walks contexts in the same
// canonical order as scanCtx, so every per-node sequence — and
// therefore Fingerprint and the codec payload — is preserved.

import (
	"thinslice/internal/analysis/cdg"
	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/budget"
	"thinslice/internal/ir"
)

// tmplEdge is one base-relative dependence: node (base + to) depends on
// (base + src).
type tmplEdge struct {
	to, src int32
	kind    EdgeKind
}

// methodTemplate is the context-independent derivation state of one
// method body. All offsets are relative to the method's first
// instruction ID, so a template survives the instruction renumbering
// that editing *other* files causes.
type methodTemplate struct {
	size  int        // instruction count (guards against stale reuse)
	uses  []tmplEdge // local/base def-use edges, in instruction order
	calls []int32    // offsets of call instructions
	heap  []int32    // offsets of heap-access instructions
	ctrl  []tmplEdge // intraprocedural control dependences
	entry []int32    // offsets of instructions control dependent on entry
}

// BuildState carries the per-method templates of one build so the next
// edit can reuse them. States are cheap to hold (flat int slices, no
// pointers into the program they were derived from).
type BuildState struct {
	templates map[string]*methodTemplate
}

// DeltaStats reports how much of a BuildDelta run was reused.
type DeltaStats struct {
	// TemplatesReused and TemplatesBuilt partition the distinct reachable
	// methods of the new program.
	TemplatesReused int
	TemplatesBuilt  int
	// Ctxs is the number of contexts replayed (nodes come from every
	// context regardless of reuse; only the per-method derivation work is
	// saved).
	Ctxs int
}

// newMethodTemplate derives m's template: one body walk plus one CDG
// construction, mirroring exactly what scanCtx and controlCtx emit per
// context.
func newMethodTemplate(m *ir.Method, first int) *methodTemplate {
	t := &methodTemplate{}
	cg := cdg.Build(m)
	m.Instrs(func(ins ir.Instr) {
		local := int32(ins.ID() - first)
		t.size++
		if _, isCall := ins.(*ir.Call); isCall {
			t.calls = append(t.calls, local)
		} else {
			ins.EachUse(func(u *ir.Reg, role ir.Role) {
				if u.Def == nil {
					return
				}
				kind := EdgeLocal
				if role == ir.RoleBase {
					kind = EdgeBase
				}
				t.uses = append(t.uses, tmplEdge{to: local, src: int32(u.Def.ID() - first), kind: kind})
			})
			switch ins.(type) {
			case *ir.SetField, *ir.GetField, *ir.ArrayStore, *ir.ArrayLoad,
				*ir.ArrayLen, *ir.SetStatic, *ir.GetStatic:
				t.heap = append(t.heap, local)
			}
		}
		for _, br := range cg.InstrDeps(ins) {
			if br != ins {
				t.ctrl = append(t.ctrl, tmplEdge{to: local, src: int32(br.ID() - first), kind: EdgeControl})
			}
		}
		if cg.DependsOnEntry(ins) {
			t.entry = append(t.entry, local)
		}
	})
	return t
}

// replayScan re-emits one context's scan phase off its method template:
// use edges, call links, and heap-access collection, in the same
// per-node order scanCtx produces.
func (g *Graph) replayScan(mc *pointsto.MCtx, t *methodTemplate, em scanEmit) {
	base := int(g.base[mc])
	first := g.firstID[mc.Method]
	for _, e := range t.uses {
		em.dep(Node(base+int(e.to)), Dep{Src: Node(base + int(e.src)), Kind: e.kind, Via: NoNode})
	}
	for _, local := range t.calls {
		call := g.Prog.InstrByID(first + int(local)).(*ir.Call)
		g.linkCall(mc, Node(base+int(local)), call, em)
	}
	h := em.heap
	if h == nil {
		return
	}
	objIDs := func(r *ir.Reg) []int {
		return g.Pts.PointsToIDsIn(nil, r, mc)
	}
	for _, local := range t.heap {
		node := Node(base + int(local))
		switch ins := g.Prog.InstrByID(first + int(local)).(type) {
		case *ir.SetField:
			h.fieldStores[ins.Field.QualifiedName()] = append(
				h.fieldStores[ins.Field.QualifiedName()], newHeapAccess(node, objIDs(ins.Obj)))
		case *ir.GetField:
			h.fieldLoads[ins.Field.QualifiedName()] = append(
				h.fieldLoads[ins.Field.QualifiedName()], newHeapAccess(node, objIDs(ins.Obj)))
		case *ir.ArrayStore:
			h.elemStores = append(h.elemStores, newHeapAccess(node, objIDs(ins.Arr)))
		case *ir.ArrayLoad:
			h.elemLoads = append(h.elemLoads, newHeapAccess(node, objIDs(ins.Arr)))
		case *ir.ArrayLen:
			h.lenReads = append(h.lenReads, heapAccess{node: node, objs: objIDs(ins.Arr)})
		case *ir.SetStatic:
			h.staticStores[ins.Field.QualifiedName()] = append(h.staticStores[ins.Field.QualifiedName()], node)
		case *ir.GetStatic:
			h.staticLoads[ins.Field.QualifiedName()] = append(h.staticLoads[ins.Field.QualifiedName()], node)
		}
	}
}

// replayCtrl re-emits one context's control dependences off the
// template. Per node, its EdgeControl rows precede its EdgeCallControl
// rows exactly as controlCtx interleaves them (both come from the
// node's own instruction, and phases are stable-sorted).
func (g *Graph) replayCtrl(mc *pointsto.MCtx, t *methodTemplate, add func(to Node, d Dep)) {
	base := int(g.base[mc])
	for _, e := range t.ctrl {
		add(Node(base+int(e.to)), Dep{Src: Node(base + int(e.src)), Kind: EdgeControl, Via: NoNode})
	}
	callers := g.callerNodes[mc]
	for _, local := range t.entry {
		node := Node(base + int(local))
		for _, caller := range callers {
			add(node, Dep{Src: caller, Kind: EdgeCallControl, Via: NoNode})
		}
	}
}

// BuildDelta constructs the dependence graph over prog/pts, reusing
// prev's per-method templates for every method whose qualified name is
// not in changed. A nil prev (or empty template set) degrades to a full
// sequential build that additionally returns a complete BuildState —
// the cold path of an incremental session. The result is byte-identical
// (Fingerprint, EncodeGraph payload) to Build(prog, pts).
//
// changed must contain the qualified name of every method whose body
// differs from the build prev describes — the depgraph frontier plus
// removed/added units. A template whose recorded instruction count
// disagrees with the new body is rebuilt regardless, as a stale-input
// guard. BuildDelta is unmetered: incremental rebuilds back a live
// session, where truncation would poison every later delta.
func BuildDelta(prog *ir.Program, pts *pointsto.Result, prev *BuildState, changed []string) (*Graph, *BuildState, DeltaStats) {
	var b *budget.Budget
	g := &Graph{
		Prog:        prog,
		Pts:         pts,
		meter:       b.Phase(budget.PhaseSDG),
		base:        make(map[*pointsto.MCtx]int32),
		firstID:     make(map[*ir.Method]int),
		callerNodes: make(map[*pointsto.MCtx][]Node),
	}
	g.returns = make(map[*ir.Method][]*ir.Return, len(prog.Methods))
	methodSize := make(map[*ir.Method]int, len(prog.Methods))
	for _, m := range prog.Methods {
		first, n := -1, 0
		var rets []*ir.Return
		m.Instrs(func(ins ir.Instr) {
			if first < 0 {
				first = ins.ID()
			}
			n++
			if ret, ok := ins.(*ir.Return); ok {
				rets = append(rets, ret)
			}
		})
		g.firstID[m] = first
		g.returns[m] = rets
		methodSize[m] = n
	}
	g.mctxs = pts.MCtxs()
	total := 0
	for _, mc := range g.mctxs {
		g.base[mc] = int32(total)
		total += methodSize[mc.Method]
	}
	g.nodeCtx = make([]*pointsto.MCtx, 0, total)
	for _, mc := range g.mctxs {
		for i := 0; i < methodSize[mc.Method]; i++ {
			g.nodeCtx = append(g.nodeCtx, mc)
		}
	}

	changedSet := make(map[string]bool, len(changed))
	for _, q := range changed {
		changedSet[q] = true
	}
	var stats DeltaStats
	st := &BuildState{templates: make(map[string]*methodTemplate)}
	tmplOf := make(map[*ir.Method]*methodTemplate, len(prog.Methods))
	template := func(m *ir.Method) *methodTemplate {
		if t, ok := tmplOf[m]; ok {
			return t
		}
		q := m.Sig.QualifiedName()
		var t *methodTemplate
		if prev != nil && !changedSet[q] {
			t = prev.templates[q]
		}
		if t != nil && t.size == methodSize[m] {
			stats.TemplatesReused++
		} else {
			t = newMethodTemplate(m, g.firstID[m])
			stats.TemplatesBuilt++
		}
		tmplOf[m] = t
		st.templates[q] = t
		return t
	}

	// Scan phase: replay every context in canonical order. Workers are
	// unnecessary here — the expensive per-method derivation is exactly
	// what the templates skip.
	h := newHeapIndex()
	em := scanEmit{
		tick: g.tick,
		dep:  g.addDep,
		caller: func(callee *pointsto.MCtx, n Node) {
			g.callerNodes[callee] = append(g.callerNodes[callee], n)
		},
		heap: h,
	}
	for _, mc := range g.mctxs {
		g.replayScan(mc, template(mc.Method), em)
	}
	stats.Ctxs = len(g.mctxs)

	// Points-to-derived phase: heap pairing, array lengths, statics.
	g.emitHeap(h, g.tick, g.addDep)

	// Control phase, off the cached CDG rows.
	for _, mc := range g.mctxs {
		g.replayCtrl(mc, tmplOf[mc.Method], g.addDep)
	}
	g.finalize()
	return g, st, stats
}
