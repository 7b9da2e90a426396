// Package sdg builds the context-insensitive dependence graph variant
// of paper §5.2. Nodes are (instruction, call-graph-context) pairs:
// like WALA, the graph contains one copy of a method's statements per
// call graph node, so the object-sensitive cloning of container classes
// performed by the pointer analysis (paper §6.1) is visible to the
// slicers. Edges carry the classification thin slicing needs —
// producer flow, base-pointer flow, heap flow (direct store→load edges
// justified by the points-to analysis), parameter/return flow, and
// control dependence.
//
// Following §5.2, heap dependences are direct interprocedural edges
// from stores to may-aliased loads, avoiding the heap parameters that
// make the context-sensitive SDG (§5.3, package csslice) blow up.
package sdg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"time"

	"thinslice/internal/analysis/cdg"
	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/budget"
	"thinslice/internal/ir"
)

// EdgeKind classifies a dependence edge. (int32 keeps Dep at 12 bytes
// — the CSR edge array is the graph's dominant allocation.)
type EdgeKind int32

// Edge kinds. Thin slices traverse Local/Heap/Param/Return flow;
// traditional slices additionally traverse Base flow and control.
const (
	// EdgeLocal is intraprocedural SSA def-use flow into a producer
	// (or branch-condition) operand.
	EdgeLocal EdgeKind = iota
	// EdgeBase is def-use flow into a base-pointer or array-index
	// operand: a "base pointer flow dependence" (paper §3), ignored by
	// thin slicing.
	EdgeBase
	// EdgeHeap is a direct store→load edge between may-aliased heap
	// accesses (producer flow through the heap).
	EdgeHeap
	// EdgeParam is actual-argument → formal-parameter flow; Via names
	// the call site, which is itself a producer statement.
	EdgeParam
	// EdgeReturn is return-value → call-result flow.
	EdgeReturn
	// EdgeControl is intraprocedural control dependence on a branch.
	EdgeControl
	// EdgeCallControl makes callee statements that always execute on
	// entry control dependent on the call sites of their method.
	EdgeCallControl
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeLocal:
		return "local"
	case EdgeBase:
		return "base"
	case EdgeHeap:
		return "heap"
	case EdgeParam:
		return "param"
	case EdgeReturn:
		return "return"
	case EdgeControl:
		return "control"
	case EdgeCallControl:
		return "call-control"
	}
	return "?"
}

// IsProducerFlow reports whether edges of kind k carry producer value
// flow (the edges a thin slice follows).
func (k EdgeKind) IsProducerFlow() bool {
	switch k {
	case EdgeLocal, EdgeHeap, EdgeParam, EdgeReturn:
		return true
	}
	return false
}

// IsControl reports whether k is a control dependence kind.
func (k EdgeKind) IsControl() bool {
	return k == EdgeControl || k == EdgeCallControl
}

// Node identifies one statement instance: an instruction in a
// particular call-graph context.
type Node int32

// NoNode is the absent-node sentinel (e.g. Dep.Via on non-param edges).
const NoNode Node = -1

// Dep is one incoming dependence of a node: the node depends on Src.
// Via is the call-site node mediating param flow (itself part of the
// producer chain), or NoNode.
type Dep struct {
	Src  Node
	Kind EdgeKind
	Via  Node
}

// edgeRec is one buffered edge addition: node to depends via d. The
// construction phases emit these into flat pointer-free buffers;
// finalize distributes them into the CSR layout.
type edgeRec struct {
	to Node
	d  Dep
}

// Graph is the dependence graph, stored as in-edges per node.
type Graph struct {
	Prog *ir.Program
	Pts  *pointsto.Result

	// Truncated reports that construction stopped at the edge budget:
	// the node set is complete but some dependence edges are missing,
	// so slices over this graph may be under-approximate. LimitErr
	// carries the triggering *budget.ErrExhausted.
	Truncated bool
	LimitErr  error

	meter *budget.Meter
	stop  error
	// Edge records accumulate during construction in an ordered chain
	// of fixed-size chunks (edgeFull + the active edgeCur) — no
	// per-node slices and no doubling-growth copies, so emitting E
	// edges allocates exactly ceil(E/chunk) pointer-free blocks;
	// finalize stable-sorts the chain by target node into the CSR
	// arrays below. A node's in-edge order is its emission order,
	// which the counting sort preserves.
	edgeFull [][]edgeRec
	edgeCur  []edgeRec
	// CSR (compressed sparse row) in-edge layout, built once after
	// construction: node n's dependences are csrDeps[csrOff[n]:csrOff[n+1]].
	// A flat layout keeps the backward closure's inner loop on one
	// contiguous array instead of chasing per-node slice headers.
	csrOff   []int32
	csrDeps  []Dep
	csrBuild time.Duration
	mctxs    []*pointsto.MCtx
	base     map[*pointsto.MCtx]int32 // first node of each context
	nodeCtx  []*pointsto.MCtx         // dense: node → context (one entry per node)
	firstID  map[*ir.Method]int       // first instruction ID of each method
	numEdges int
	// callerNodes are the call-site nodes that may invoke a context.
	callerNodes map[*pointsto.MCtx][]Node
	// returns caches each method's Return instructions: linkCall needs
	// them once per (call site, callee context) pair, and re-walking
	// the whole callee body every time is quadratic in practice.
	returns map[*ir.Method][]*ir.Return
}

// NumNodes returns the number of statement instances (the paper's
// "SDG Statements": scalar statements across call-graph clones,
// without heap parameters).
func (g *Graph) NumNodes() int { return len(g.nodeCtx) }

// NumEdges returns the number of dependence edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// Deps returns the dependences of node n, in construction order (a
// view into the CSR edge array; callers must not mutate it).
func (g *Graph) Deps(n Node) []Dep { return g.csrDeps[g.csrOff[n]:g.csrOff[n+1]] }

// CSRBuildDuration reports how long packing the per-node edge lists
// into the CSR layout took (the bench harness's csr_build_us column).
func (g *Graph) CSRBuildDuration() time.Duration { return g.csrBuild }

// edgeChunkSize is the edgeRec capacity of one emission chunk (~768KB).
const edgeChunkSize = 1 << 15

// emit appends one edge record to the chunk chain.
func (g *Graph) emit(to Node, d Dep) {
	if len(g.edgeCur) == cap(g.edgeCur) {
		if g.edgeCur != nil {
			g.edgeFull = append(g.edgeFull, g.edgeCur)
		}
		g.edgeCur = make([]edgeRec, 0, edgeChunkSize)
	}
	g.edgeCur = append(g.edgeCur, edgeRec{to, d})
}

// finalize distributes the chunked edge records into the CSR layout
// with a stable counting sort by target node and releases the chunks.
// A node's in-edges come from exactly one emitter per construction
// phase and phases run in a fixed order, so emission order per node
// equals the sequential addDep order — and the stable sort preserves
// it, which keeps Fingerprint and the codec byte stream identical to
// the old slice-of-slices representation.
func (g *Graph) finalize() {
	start := time.Now()
	if len(g.edgeCur) > 0 {
		g.edgeFull = append(g.edgeFull, g.edgeCur)
	}
	g.edgeCur = nil
	n := len(g.nodeCtx)
	total := 0
	off := make([]int32, n+1)
	for _, c := range g.edgeFull {
		total += len(c)
		for i := range c {
			off[c[i].to+1]++
		}
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	deps := make([]Dep, total)
	cur := make([]int32, n)
	copy(cur, off[:n])
	for _, c := range g.edgeFull {
		for i := range c {
			e := &c[i]
			deps[cur[e.to]] = e.d
			cur[e.to]++
		}
	}
	g.csrOff, g.csrDeps = off, deps
	g.numEdges = total
	g.edgeFull = nil
	g.csrBuild = time.Since(start)
}

// CtxOf returns the call-graph context of n.
func (g *Graph) CtxOf(n Node) *pointsto.MCtx { return g.nodeCtx[n] }

// InstrOf returns the instruction of n.
func (g *Graph) InstrOf(n Node) ir.Instr {
	mc := g.nodeCtx[n]
	local := int(n) - int(g.base[mc])
	return g.Prog.InstrByID(g.firstID[mc.Method] + local)
}

// NodeOf returns the node for an instruction in a specific context.
func (g *Graph) NodeOf(mc *pointsto.MCtx, ins ir.Instr) Node {
	return Node(int(g.base[mc]) + ins.ID() - g.firstID[ins.Block().Method])
}

// NodesOf returns all statement instances of an instruction (one per
// context its method was analyzed under).
func (g *Graph) NodesOf(ins ir.Instr) []Node {
	m := ins.Block().Method
	var out []Node
	for _, mc := range g.Pts.MCtxsOf(m) {
		out = append(out, g.NodeOf(mc, ins))
	}
	return out
}

// Reachable reports whether m has at least one analyzed context.
func (g *Graph) Reachable(m *ir.Method) bool {
	return len(g.Pts.MCtxsOf(m)) > 0
}

// CallerNodes returns the call-site nodes that may invoke context mc.
func (g *Graph) CallerNodes(mc *pointsto.MCtx) []Node { return g.callerNodes[mc] }

// Fingerprint returns a sha256 digest of the graph's full structure —
// every node's ordered dependence list, the per-context caller-node
// lists, and the edge count. Two builds of the same program (metered
// single-pass or two-pass, fresh or decoded) must produce identical
// fingerprints; the equivalence tests pin exactly that.
func (g *Graph) Fingerprint() string {
	h := sha256.New()
	buf := make([]byte, 8)
	wr := func(v int64) {
		binary.LittleEndian.PutUint64(buf, uint64(v))
		h.Write(buf)
	}
	wr(int64(len(g.nodeCtx)))
	wr(int64(g.numEdges))
	for n := range g.nodeCtx {
		deps := g.Deps(Node(n))
		wr(int64(len(deps)))
		for _, d := range deps {
			wr(int64(d.Src))
			wr(int64(d.Kind))
			wr(int64(d.Via))
		}
	}
	for _, mc := range g.mctxs {
		callers := g.callerNodes[mc]
		wr(int64(len(callers)))
		for _, c := range callers {
			wr(int64(c))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

type heapAccess struct {
	node   Node
	objs   []int // sorted object IDs of the base pointer in this context
	maskLo int32 // first 64-bit word of mask in object-ID space
	mask   []uint64
}

// newHeapAccess builds an access with a word-addressed bitset over its
// object IDs. The pairing phase tests may-alias with a handful of word
// ANDs instead of a sorted-list merge — on realistic programs the IDs
// of one base pointer cluster into a single word, so each of the
// loads×stores probes costs one AND. objs must be sorted.
func newHeapAccess(node Node, objs []int) heapAccess {
	a := heapAccess{node: node, objs: objs}
	if len(objs) > 0 {
		a.maskLo = int32(objs[0] >> 6)
		a.mask = make([]uint64, int32(objs[len(objs)-1]>>6)-a.maskLo+1)
		for _, o := range objs {
			a.mask[int32(o>>6)-a.maskLo] |= 1 << (uint(o) & 63)
		}
	}
	return a
}

// aliases reports whether the two accesses' object sets intersect,
// touching only the word range both masks cover.
func (a *heapAccess) aliases(b *heapAccess) bool {
	lo := max(a.maskLo, b.maskLo)
	hi := min(a.maskLo+int32(len(a.mask)), b.maskLo+int32(len(b.mask)))
	for w := lo; w < hi; w++ {
		if a.mask[w-a.maskLo]&b.mask[w-b.maskLo] != 0 {
			return true
		}
	}
	return false
}

// heapIndex collects the heap accesses discovered during the scan
// phase, keyed so the pairing phase can match stores to may-aliased
// loads. Accesses are appended in deterministic (context, instruction)
// order; the pairing phase relies on that order for reproducible edge
// lists.
type heapIndex struct {
	fieldStores  map[string][]heapAccess
	fieldLoads   map[string][]heapAccess
	elemStores   []heapAccess
	elemLoads    []heapAccess
	lenReads     []heapAccess
	staticStores map[string][]Node
	staticLoads  map[string][]Node
}

func newHeapIndex() *heapIndex {
	return &heapIndex{
		fieldStores:  make(map[string][]heapAccess),
		fieldLoads:   make(map[string][]heapAccess),
		staticStores: make(map[string][]Node),
		staticLoads:  make(map[string][]Node),
	}
}

// scanEmit sinks one context's scan-phase discoveries. The single-pass
// build writes straight into the graph (ticking the shared budget per
// edge); the two-pass build's counting pass only sizes each node's
// in-edge list, and its fill pass leaves caller and heap nil:
// dependence edges are re-emitted into their final CSR slots but the
// heap index and caller lists from the first pass are kept.
type scanEmit struct {
	// tick is called once per instruction; returning false stops the
	// scan of the remaining instructions.
	tick func() bool
	// dep adds one dependence edge.
	dep func(to Node, d Dep)
	// caller records a call-site node that may invoke callee (nil to
	// skip recording).
	caller func(callee *pointsto.MCtx, n Node)
	// heap collects heap accesses for the pairing phase (nil to skip).
	heap *heapIndex
}

// Build constructs the dependence graph over the contexts reachable in
// pts, unbounded.
func Build(prog *ir.Program, pts *pointsto.Result) *Graph {
	g, err := BuildBudget(prog, pts, nil)
	if err != nil {
		// Unreachable: a nil budget cannot be canceled or exhausted.
		panic(err)
	}
	return g
}

// BuildBudget constructs the dependence graph under a budget
// (PhaseSDG, one step per instruction scanned or edge added). A
// canceled context or passed deadline aborts with *budget.ErrCanceled;
// an exhausted step cap returns the partial graph flagged Truncated
// with a nil error — all nodes present, some edges missing. A step cap
// selects the metered single-pass construction, whose truncation point
// is deterministic; every other budget takes the two-pass direct-CSR
// construction. Both produce byte-identical complete graphs.
func BuildBudget(prog *ir.Program, pts *pointsto.Result, b *budget.Budget) (*Graph, error) {
	g := &Graph{
		Prog:        prog,
		Pts:         pts,
		meter:       b.Phase(budget.PhaseSDG),
		base:        make(map[*pointsto.MCtx]int32),
		firstID:     make(map[*ir.Method]int),
		callerNodes: make(map[*pointsto.MCtx][]Node),
	}
	// One walk per method collects everything the layout and linkCall
	// need (first instruction ID, instruction count, Return list) —
	// contexts then reuse the per-method numbers instead of re-walking
	// bodies once per clone.
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
		for j := 0; j < methodSize[mc.Method]; j++ {
			g.nodeCtx = append(g.nodeCtx, mc)
		}
	}
	if b.Limited(budget.PhaseSDG) {
		return g.buildSinglePass()
	}
	return g.buildTwoPass()
}

// scanCtx performs the per-context scan phase: intraprocedural def-use
// edges, heap-access collection, and call linking.
func (g *Graph) scanCtx(mc *pointsto.MCtx, em scanEmit) {
	// Points-to IDs arrive sorted straight off the solver's bitsets;
	// the pairing phase's intersection tests rely on that order.
	objIDs := func(r *ir.Reg) []int {
		return g.Pts.PointsToIDsIn(nil, r, mc)
	}
	// All same-context node numbers share one base offset; hoisting it
	// replaces two map lookups per instruction (and per use) with
	// arithmetic on the instruction ID.
	delta := int(g.base[mc]) - g.firstID[mc.Method]
	// One closure, hoisted out of the walk, visits every operand
	// allocation-free (node is rebound per instruction).
	var node Node
	emitUse := func(u *ir.Reg, role ir.Role) {
		if u.Def == nil {
			return
		}
		kind := EdgeLocal
		if role == ir.RoleBase {
			kind = EdgeBase
		}
		em.dep(node, Dep{Src: Node(delta + u.Def.ID()), Kind: kind, Via: NoNode})
	}
	mc.Method.Instrs(func(ins ir.Instr) {
		if !em.tick() {
			return
		}
		node = Node(delta + ins.ID())
		// Local/base def-use edges from operand definitions. Call
		// operands are excluded: argument flow reaches the callee's
		// formal parameters via EdgeParam, and the call node itself
		// only receives EdgeReturn flow — following the SDG shape,
		// where a call result does not directly depend on the
		// arguments in the caller.
		if _, isCall := ins.(*ir.Call); !isCall {
			ins.EachUse(emitUse)
		}
		if call, ok := ins.(*ir.Call); ok {
			g.linkCall(mc, node, call, em)
		} else if h := em.heap; h != nil {
			switch ins := ins.(type) {
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
	})
}

// lenDeps returns the heap edges of one array-length read: the
// allocation sites of its may-pointees, across every context instance
// of the allocation (the object's heap context names the allocating
// container context only indirectly).
func (g *Graph) lenDeps(lr heapAccess, add func(to Node, d Dep)) {
	seen := make(map[Node]bool)
	for _, id := range lr.objs {
		o := g.Pts.Objects()[id]
		if !o.IsArray() {
			continue
		}
		for _, src := range g.NodesOf(o.Site) {
			if !seen[src] {
				seen[src] = true
				add(lr.node, Dep{Src: src, Kind: EdgeHeap, Via: NoNode})
			}
		}
	}
}

// controlCtx adds one context's control dependence edges using the
// method's (shared, immutable) intraprocedural CDG.
func (g *Graph) controlCtx(mc *pointsto.MCtx, cg *cdg.Graph, add func(to Node, d Dep)) {
	callers := g.callerNodes[mc]
	delta := int(g.base[mc]) - g.firstID[mc.Method]
	mc.Method.Instrs(func(ins ir.Instr) {
		node := Node(delta + ins.ID())
		for _, br := range cg.InstrDeps(ins) {
			if br != ins {
				add(node, Dep{Src: Node(delta + br.ID()), Kind: EdgeControl, Via: NoNode})
			}
		}
		if cg.DependsOnEntry(ins) {
			for _, caller := range callers {
				add(node, Dep{Src: caller, Kind: EdgeCallControl, Via: NoNode})
			}
		}
	})
}

// maskKey identifies a single-word points-to mask; loads with equal
// masks match exactly the same stores, so per-field pairing caches the
// match list once per distinct mask instead of re-testing every
// (load, store) pair — and the two-pass build would otherwise pay the
// full quadratic sweep twice. Multi-word masks (rare: they need object
// IDs spread over >64 contiguous IDs) fall back to direct pairing.
type maskKey struct {
	lo int32
	w  uint64
}

// matchStores returns the nodes of stores aliasing ld, in stores slice
// order (the order the pairing loops have always emitted), caching by
// mask signature when ld's mask is a single word.
func matchStores(ld *heapAccess, stores []heapAccess, cache map[maskKey][]Node) []Node {
	if len(ld.mask) == 1 {
		k := maskKey{ld.maskLo, ld.mask[0]}
		if m, ok := cache[k]; ok {
			return m
		}
		var m []Node
		for i := range stores {
			if ld.aliases(&stores[i]) {
				m = append(m, stores[i].node)
			}
		}
		cache[k] = m
		return m
	}
	var m []Node
	for i := range stores {
		if ld.aliases(&stores[i]) {
			m = append(m, stores[i].node)
		}
	}
	return m
}

// emitHeapAndControl runs the pairing, array-length, static, and
// control phases over an already-built heap index, sending every edge
// to add. tick, when non-nil, is checked once per candidate heap load
// (the pairing phase is the graph's quadratic hot spot); the fill pass
// of the two-pass build passes nil and re-emits unconditionally.
func (g *Graph) emitHeapAndControl(h *heapIndex, cdgCache map[*ir.Method]*cdg.Graph, tick func() bool, add func(to Node, d Dep)) {
	g.emitHeap(h, tick, add)
	if g.stop != nil {
		return
	}
	// Control dependence edges (intraprocedural graphs are shared
	// across contexts; edges are added per context instance).
	for _, mc := range g.mctxs {
		if g.stop != nil {
			return
		}
		cg := cdgCache[mc.Method]
		if cg == nil {
			cg = cdg.Build(mc.Method)
			cdgCache[mc.Method] = cg
		}
		g.controlCtx(mc, cg, add)
	}
}

// emitHeap runs the points-to-derived phases — heap pairing, array
// lengths, statics — over an already-built heap index.
func (g *Graph) emitHeap(h *heapIndex, tick func() bool, add func(to Node, d Dep)) {
	// Heap edges: store→load when the base points-to sets (in the
	// respective contexts) intersect. Map iteration order varies run to
	// run, but each load node lives under exactly one field name, so
	// every node's in-edge sequence is still deterministic.
	for fname, loads := range h.fieldLoads { //determinism:ok — single emitter per load node (see above)
		if g.stop != nil {
			return
		}
		stores := h.fieldStores[fname]
		cache := make(map[maskKey][]Node)
		for i := range loads {
			if tick != nil && !tick() {
				return
			}
			for _, st := range matchStores(&loads[i], stores, cache) {
				add(loads[i].node, Dep{Src: st, Kind: EdgeHeap, Via: NoNode})
			}
		}
	}
	for _, ld := range h.elemLoads {
		if tick != nil && !tick() {
			return
		}
		for _, st := range h.elemStores {
			if ld.aliases(&st) {
				add(ld.node, Dep{Src: st.node, Kind: EdgeHeap, Via: NoNode})
			}
		}
	}
	for _, lr := range h.lenReads {
		if g.stop != nil {
			return
		}
		g.lenDeps(lr, add)
	}
	// Static fields are single global locations: every store reaches
	// every load of the same field.
	for fname, loads := range h.staticLoads { //determinism:ok — single emitter per load node
		if g.stop != nil {
			return
		}
		for _, ld := range loads {
			for _, st := range h.staticStores[fname] {
				add(ld, Dep{Src: st, Kind: EdgeHeap, Via: NoNode})
			}
		}
	}
}

// buildSinglePass is the step-capped construction: every step ticks
// the shared meter, so an exhausted cap truncates at a deterministic
// point.
func (g *Graph) buildSinglePass() (*Graph, error) {
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
		if g.stop != nil {
			break
		}
		g.scanCtx(mc, em)
	}
	g.emitHeapAndControl(h, make(map[*ir.Method]*cdg.Graph), g.tick, g.addDep)
	if g.stop != nil {
		if budget.IsCanceled(g.stop) {
			return nil, g.stop
		}
		g.Truncated = true
		g.LimitErr = g.stop
	}
	g.finalize()
	return g, nil
}

// buildTwoPass is the construction for builds without a step cap: a
// counting pass sizes every node's in-edge list, then a second
// emission pass writes each edge straight into its final CSR slot — no
// intermediate edge buffers at all, roughly a quarter of the build's
// allocated bytes on the larger corpora. Step-capped budgets stay on
// the single-pass path above because deterministic truncation requires
// the exact single-pass tick interleaving; here the
// meter can only fail on cancellation or deadline, and either aborts
// the build outright. The fill pass re-runs the phases in the same
// order over the retained heap index and CDG cache (heap and caller
// recording suppressed), so every node's in-edge sequence — and
// therefore Fingerprint and the codec byte stream — is identical to
// the single-pass result.
func (g *Graph) buildTwoPass() (*Graph, error) {
	n := len(g.nodeCtx)
	off := make([]int32, n+1)
	count := func(to Node, d Dep) { off[to+1]++ }
	h := newHeapIndex()
	cdgCache := make(map[*ir.Method]*cdg.Graph)
	em := scanEmit{
		tick: g.tick,
		dep:  count,
		caller: func(callee *pointsto.MCtx, nd Node) {
			g.callerNodes[callee] = append(g.callerNodes[callee], nd)
		},
		heap: h,
	}
	for _, mc := range g.mctxs {
		if g.stop != nil {
			break
		}
		g.scanCtx(mc, em)
	}
	g.emitHeapAndControl(h, cdgCache, g.tick, count)
	if g.stop != nil {
		return nil, g.stop
	}
	start := time.Now()
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	total := int(off[n])
	deps := make([]Dep, total)
	cur := make([]int32, n)
	copy(cur, off[:n])
	g.csrBuild = time.Since(start)
	place := func(to Node, d Dep) {
		deps[cur[to]] = d
		cur[to]++
	}
	em2 := scanEmit{tick: func() bool { return true }, dep: place}
	for _, mc := range g.mctxs {
		g.scanCtx(mc, em2)
	}
	g.emitHeapAndControl(h, cdgCache, nil, place)
	g.csrOff, g.csrDeps, g.numEdges = off, deps, total
	return g, nil
}

// tick spends one construction step; once the budget fails the graph
// stops growing (sticky), and Build interprets the violation.
func (g *Graph) tick() bool {
	if g.stop != nil {
		return false
	}
	if err := g.meter.Tick(); err != nil {
		g.stop = err
		return false
	}
	return true
}

func (g *Graph) addDep(to Node, d Dep) {
	if !g.tick() {
		return
	}
	g.emit(to, d)
}

// linkCall adds parameter and return edges for every callee context of
// a call site in a caller context.
func (g *Graph) linkCall(caller *pointsto.MCtx, callNode Node, call *ir.Call, em scanEmit) {
	callerDelta := int(g.base[caller]) - g.firstID[caller.Method]
	for _, callee := range g.Pts.CalleesAt(call, caller) {
		if em.caller != nil {
			em.caller(callee, callNode)
		}
		calleeDelta := int(g.base[callee]) - g.firstID[callee.Method]
		params := callee.Method.Params
		offset := 0
		if !callee.Method.Sig.Static {
			offset = 1
			if call.Recv != nil && call.Recv.Def != nil {
				em.dep(Node(calleeDelta+params[0].ID()),
					Dep{Src: Node(callerDelta + call.Recv.Def.ID()), Kind: EdgeParam, Via: callNode})
			}
		}
		for i, arg := range call.Args {
			if i+offset >= len(params) {
				break
			}
			if arg.Def != nil {
				em.dep(Node(calleeDelta+params[i+offset].ID()),
					Dep{Src: Node(callerDelta + arg.Def.ID()), Kind: EdgeParam, Via: callNode})
			}
		}
		if call.Dst != nil {
			for _, ret := range g.returns[callee.Method] {
				if ret.Val != nil {
					em.dep(callNode, Dep{Src: Node(calleeDelta + ret.ID()), Kind: EdgeReturn, Via: NoNode})
				}
			}
		}
	}
}
