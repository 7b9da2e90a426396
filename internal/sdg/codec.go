package sdg

// Persistent encoding of a Graph (package artifact's "sdg" payload).
// Node numbering is fully determined by the program and the points-to
// result (methods × contexts, in MCtx ID order), so the payload stores
// only what Build computes on top of that scaffolding: each node's
// ordered dependence list and the per-context caller-node lists.
// DecodeGraph rebuilds the scaffolding exactly as BuildBudget does and
// fills in the edges, so a decoded graph fingerprints identically to
// the one Build produced.

import (
	"fmt"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/artifact"
	"thinslice/internal/ir"
)

// EncodeGraph returns the persistent payload for g. Truncated graphs
// are missing edges and are never cached, so encoding one is an error.
func EncodeGraph(g *Graph) ([]byte, error) {
	if g.Truncated || g.LimitErr != nil {
		return nil, fmt.Errorf("sdg: refusing to encode a truncated graph")
	}
	var w artifact.Writer
	w.Uvarint(uint64(len(g.nodeCtx)))
	for n := range g.nodeCtx {
		deps := g.Deps(Node(n))
		w.Uvarint(uint64(len(deps)))
		for _, d := range deps {
			w.Int64(int64(d.Src))
			w.Uvarint(uint64(d.Kind))
			w.Int64(int64(d.Via))
		}
	}
	// Caller-node lists in MCtx ID order; list order is load-bearing
	// (slicers and the fingerprint walk it as recorded).
	for _, mc := range g.mctxs {
		callers := g.callerNodes[mc]
		w.Uvarint(uint64(len(callers)))
		for _, c := range callers {
			w.Int64(int64(c))
		}
	}
	return w.Bytes(), nil
}

// DecodeGraph rebuilds a Graph from data against prog and pts (the
// artifacts the record was encoded over). Any structural fault in data
// is an error; decode never panics on corrupt input.
func DecodeGraph(data []byte, prog *ir.Program, pts *pointsto.Result) (g *Graph, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			g, err = nil, fmt.Errorf("sdg: decode: malformed payload: %v", rec)
		}
	}()
	g = &Graph{
		Prog:        prog,
		Pts:         pts,
		base:        make(map[*pointsto.MCtx]int32),
		firstID:     make(map[*ir.Method]int),
		callerNodes: make(map[*pointsto.MCtx][]Node),
	}
	// Scaffolding, exactly as BuildBudget lays it out.
	methodSize := make(map[*ir.Method]int, len(prog.Methods))
	for _, m := range prog.Methods {
		first, n := -1, 0
		m.Instrs(func(ins ir.Instr) {
			if first < 0 {
				first = ins.ID()
			}
			n++
		})
		g.firstID[m] = first
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
	r := artifact.NewReader(data)
	if n := r.Uvarint(); r.Err() == nil && n != uint64(total) {
		return nil, fmt.Errorf("sdg: decode: record has %d nodes, program yields %d", n, total)
	}
	node := func() (Node, error) {
		v := r.Int64()
		if v < int64(NoNode) || v >= int64(total) {
			return NoNode, fmt.Errorf("sdg: decode: node %d out of range [-1, %d)", v, total)
		}
		return Node(v), nil
	}
	for i := 0; i < total; i++ {
		nDeps := r.Len()
		if r.Err() != nil {
			return nil, r.Err()
		}
		for j := 0; j < nDeps; j++ {
			src, err := node()
			if err != nil {
				return nil, firstErr(r.Err(), err)
			}
			kind := EdgeKind(r.Uvarint())
			if kind > EdgeCallControl {
				return nil, firstErr(r.Err(), fmt.Errorf("sdg: decode: unknown edge kind %d", kind))
			}
			via, err := node()
			if err != nil {
				return nil, firstErr(r.Err(), err)
			}
			g.emit(Node(i), Dep{Src: src, Kind: kind, Via: via})
		}
	}
	for _, mc := range g.mctxs {
		nCallers := r.Len()
		if r.Err() != nil {
			return nil, r.Err()
		}
		for j := 0; j < nCallers; j++ {
			c, err := node()
			if err != nil {
				return nil, firstErr(r.Err(), err)
			}
			g.callerNodes[mc] = append(g.callerNodes[mc], c)
		}
	}
	if err := r.Finish(); err != nil {
		return nil, err
	}
	g.finalize()
	return g, nil
}

func firstErr(readerErr, resolveErr error) error {
	if readerErr != nil {
		return readerErr
	}
	return resolveErr
}
