// Package analyzer is the library facade: it runs the full pipeline
// (parse → type check → lower to SSA IR → pointer analysis → dependence
// graph) and hands out thin and traditional slicers. Tools, examples,
// and experiments all start here.
//
// Since the session refactor this package is a thin convenience
// wrapper over package session: Analyze opens a session, drives the
// artifact chain to the dependence graph, and bundles the results.
// Callers that make repeated or multi-seed queries over the same
// program should hold the session (Analysis.Session) or open one
// directly.
package analyzer

import (
	"context"
	"time"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/budget"
	"thinslice/internal/core"
	"thinslice/internal/ir"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/lang/types"
	"thinslice/internal/sdg"
	"thinslice/internal/session"
)

// Analysis bundles the artifacts of one analyzed program.
type Analysis struct {
	Info  *types.Info
	Prog  *ir.Program
	Pts   *pointsto.Result
	Graph *sdg.Graph

	// budget, when non-nil, bounds slicers handed out by this analysis.
	budget *budget.Budget
	// sess is the analysis session the artifacts came from; derived
	// artifacts (CHA, mod-ref, the context-sensitive graph) are
	// memoized there.
	sess *session.Session
}

// Partial reports whether any phase stopped early on an exhausted
// budget: the analysis is sound but may under-approximate (missing
// points-to facts or dependence edges). See Pts.Downgraded,
// Pts.Truncated, and Graph.Truncated for which phase degraded.
func (a *Analysis) Partial() bool {
	return (a.Pts != nil && a.Pts.Truncated) || (a.Graph != nil && a.Graph.Truncated)
}

type config struct {
	objSens    bool
	containers []string
	entries    []string // qualified method names
	noPrelude  bool
	verifyIR   bool
	budget     *budget.Budget
	timeout    time.Duration
	maxSteps   int64
	store      *session.Store
}

// Option configures Analyze.
type Option func(*config)

// WithObjSens toggles object-sensitive container handling in the
// pointer analysis (default on, the paper's precise configuration).
func WithObjSens(on bool) Option { return func(c *config) { c.objSens = on } }

// WithContainers overrides the set of container classes cloned
// object-sensitively.
func WithContainers(names []string) Option {
	return func(c *config) { c.containers = names }
}

// WithEntries sets explicit entry methods by qualified name
// (e.g. "Main.main"); default is every static method named main.
func WithEntries(names ...string) Option {
	return func(c *config) { c.entries = names }
}

// WithoutPrelude analyzes the sources without the container prelude.
func WithoutPrelude() Option { return func(c *config) { c.noPrelude = true } }

// WithVerifyIR runs ir.Verify over the lowered program and fails the
// pipeline with the violations found. Tests enable it unconditionally;
// production callers can opt in to catch lowering bugs at the cost of
// one extra pass over the IR.
func WithVerifyIR() Option { return func(c *config) { c.verifyIR = true } }

// WithBudget bounds the whole pipeline by an explicit budget. It takes
// precedence over WithTimeout/WithMaxSteps and the context passed to
// AnalyzeCtx.
func WithBudget(b *budget.Budget) Option { return func(c *config) { c.budget = b } }

// WithTimeout bounds the whole pipeline by a wall-clock timeout.
func WithTimeout(d time.Duration) Option { return func(c *config) { c.timeout = d } }

// WithMaxSteps caps every phase at n steps (see budget.WithSteps).
func WithMaxSteps(n int64) Option { return func(c *config) { c.maxSteps = n } }

// InStore places the analysis' artifacts in an existing session store,
// sharing cached phases with every other analysis using that store.
func InStore(st *session.Store) Option { return func(c *config) { c.store = st } }

// Analyze runs the pipeline over the given sources (name → content).
func Analyze(sources map[string]string, opts ...Option) (*Analysis, error) {
	return AnalyzeCtx(context.Background(), sources, opts...)
}

// AnalyzeCtx is Analyze bounded by a context: cancellation, context
// deadline, and any WithBudget/WithTimeout/WithMaxSteps options stop
// the pipeline promptly with a typed, phase-tagged error (see package
// budget) — or, for step exhaustion past the points-to phase, a partial
// Analysis for which Partial reports true. It never panics: internal
// faults surface as *budget.ErrInternal tagged with the running phase.
func AnalyzeCtx(ctx context.Context, sources map[string]string, opts ...Option) (*Analysis, error) {
	cfg := config{objSens: true, containers: prelude.ContainerClasses}
	for _, o := range opts {
		o(&cfg)
	}
	b := cfg.budget
	if b == nil {
		var bopts []budget.Option
		if cfg.timeout > 0 {
			bopts = append(bopts, budget.WithTimeout(cfg.timeout))
		}
		if cfg.maxSteps > 0 {
			bopts = append(bopts, budget.WithSteps(cfg.maxSteps))
		}
		b = budget.New(ctx, bopts...)
	}

	sopts := []session.Option{
		session.WithObjSens(cfg.objSens),
		session.WithContainers(cfg.containers),
		session.WithEntries(cfg.entries...),
		session.WithBudget(b),
	}
	if cfg.noPrelude {
		sopts = append(sopts, session.WithoutPrelude())
	}
	if cfg.verifyIR {
		sopts = append(sopts, session.WithVerifyIR())
	}
	if cfg.store != nil {
		sopts = append(sopts, session.InStore(cfg.store))
	}
	sess := session.Open(sources, sopts...)
	return FromSession(sess)
}

// FromSession drives an existing session to a full Analysis: the
// artifact chain up to the dependence graph is built (or fetched from
// the session's store) and bundled. Panics inside any phase surface as
// phase-tagged *budget.ErrInternal; an exhausted step budget past the
// points-to phase yields a partial Analysis for which Partial reports
// true, exactly as in the pre-session pipeline.
func FromSession(sess *session.Session) (*Analysis, error) {
	graph, err := sess.Graph()
	if err != nil {
		return nil, err
	}
	// The chain below the graph is memoized: these re-fetch, not rebuild.
	info, err := sess.Info()
	if err != nil {
		return nil, err
	}
	prog, err := sess.Prog()
	if err != nil {
		return nil, err
	}
	pts, err := sess.PointsTo()
	if err != nil {
		return nil, err
	}
	return &Analysis{Info: info, Prog: prog, Pts: pts, Graph: graph, budget: sess.Budget(), sess: sess}, nil
}

// Session returns the analysis session the artifacts came from.
func (a *Analysis) Session() *session.Session { return a.sess }

// MustAnalyze is Analyze panicking on error, for known-good sources.
func MustAnalyze(sources map[string]string, opts ...Option) *Analysis {
	a, err := Analyze(sources, opts...)
	if err != nil {
		panic(err)
	}
	return a
}

// Budget returns the budget bounding this analysis' slicers and any
// downstream passes (nil means unlimited).
func (a *Analysis) Budget() *budget.Budget { return a.budget }

// ThinSlicer returns a thin slicer over the analysis' graph, bounded
// by the analysis' budget.
func (a *Analysis) ThinSlicer() *core.Slicer {
	return core.NewThin(a.Graph).WithBudget(a.budget)
}

// TraditionalSlicer returns a traditional slicer; withControl includes
// transitive control dependences.
func (a *Analysis) TraditionalSlicer(withControl bool) *core.Slicer {
	return core.NewTraditional(a.Graph, withControl).WithBudget(a.budget)
}

// SeedsAt returns the reachable statements at file:line.
func (a *Analysis) SeedsAt(file string, line int) []ir.Instr {
	return core.SeedsAt(a.Graph, file, line)
}

// Method returns the lowered method with the given qualified name.
func (a *Analysis) Method(qname string) *ir.Method {
	for _, m := range a.Prog.Methods {
		if m.Name() == qname {
			return m
		}
	}
	return nil
}
