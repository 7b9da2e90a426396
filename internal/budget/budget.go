// Package budget bounds the work every analysis phase may perform.
// A Budget wraps a context.Context with an optional wall-clock deadline
// and per-phase step caps; phases draw a Meter and call Tick() in their
// hot loops. Exhaustion and cancellation surface as distinct typed,
// phase-tagged errors, letting callers degrade gracefully (retry at
// lower precision, return a partial result flagged Truncated) instead
// of hanging or dying — the practical concern paper §5 raises when the
// context-sensitive analyses exhaust memory on the large benchmarks.
//
// A nil *Budget (and the nil *Meter it hands out) is valid and means
// "unlimited": pipeline stages accept a budget without forcing every
// caller to construct one.
package budget

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// Phase names a pipeline stage for error attribution.
type Phase string

// Pipeline phases, in execution order.
const (
	PhaseLoad     Phase = "load"     // parse + type check
	PhaseLower    Phase = "lower"    // AST → SSA IR
	PhaseVerify   Phase = "verify"   // IR invariant verification
	PhasePointsTo Phase = "pointsto" // Andersen solver
	PhaseSDG      Phase = "sdg"      // dependence graph construction
	PhaseDataflow Phase = "dataflow" // IFDS interprocedural dataflow solve
	PhaseSlice    Phase = "slice"    // backward slice closure
	PhaseExpand   Phase = "expand"   // hierarchical expansion
	PhaseCheck    Phase = "check"    // checker suite
	PhaseInterp   Phase = "interp"   // dynamic execution
)

// ErrExhausted reports that a phase spent its step cap. Work bounded
// this way can usually continue degraded (fewer contexts, partial
// result); it is distinct from cancellation.
type ErrExhausted struct {
	Phase Phase
	Limit int64
	Spent int64
}

func (e *ErrExhausted) Error() string {
	return fmt.Sprintf("budget: %s exhausted %d-step limit (spent %d)", e.Phase, e.Limit, e.Spent)
}

// ErrCanceled reports that the context was canceled or the wall-clock
// deadline passed while a phase was running. Cause is the context
// error (context.Canceled or context.DeadlineExceeded).
type ErrCanceled struct {
	Phase Phase
	Cause error
}

func (e *ErrCanceled) Error() string {
	return fmt.Sprintf("budget: %s canceled: %v", e.Phase, e.Cause)
}

func (e *ErrCanceled) Unwrap() error { return e.Cause }

// ErrInternal is an internal panic converted to an error at the facade
// boundary, tagged with the phase that was running.
type ErrInternal struct {
	Phase Phase
	Value any
	Stack []byte
}

func (e *ErrInternal) Error() string {
	return fmt.Sprintf("budget: internal error in %s: %v", e.Phase, e.Value)
}

// IsExhausted reports whether err is (or wraps) an ErrExhausted.
func IsExhausted(err error) bool {
	var e *ErrExhausted
	return errors.As(err, &e)
}

// IsCanceled reports whether err is (or wraps) an ErrCanceled.
func IsCanceled(err error) bool {
	var e *ErrCanceled
	return errors.As(err, &e)
}

// PhaseOf extracts the phase tag of a budget error, if any.
func PhaseOf(err error) (Phase, bool) {
	var ex *ErrExhausted
	if errors.As(err, &ex) {
		return ex.Phase, true
	}
	var ca *ErrCanceled
	if errors.As(err, &ca) {
		return ca.Phase, true
	}
	var in *ErrInternal
	if errors.As(err, &in) {
		return in.Phase, true
	}
	return "", false
}

// Budget is a shared allowance for one pipeline run. Phases draw
// Meters from it; the context and deadline are common to all phases
// while step caps are per-phase.
type Budget struct {
	ctx         context.Context
	deadline    time.Time
	hasDeadline bool
	limits      map[Phase]int64
	defLimit    int64 // 0 = unlimited
}

// Option configures a Budget.
type Option func(*Budget)

// WithSteps caps every phase at n steps (0 = unlimited). Per-phase
// limits set with WithPhaseSteps take precedence.
func WithSteps(n int64) Option { return func(b *Budget) { b.defLimit = n } }

// WithPhaseSteps caps one phase at n steps (0 = unlimited).
func WithPhaseSteps(p Phase, n int64) Option {
	return func(b *Budget) { b.limits[p] = n }
}

// WithTimeout sets a wall-clock deadline d from now. The deadline is
// checked by Tick; unlike context.WithTimeout it needs no cleanup and
// keeps the budget a plain value.
func WithTimeout(d time.Duration) Option {
	return func(b *Budget) { b.deadline, b.hasDeadline = time.Now().Add(d), true }
}

// WithDeadline sets an absolute wall-clock deadline.
func WithDeadline(t time.Time) Option {
	return func(b *Budget) { b.deadline, b.hasDeadline = t, true }
}

// New builds a budget over ctx. A nil ctx means context.Background().
func New(ctx context.Context, opts ...Option) *Budget {
	if ctx == nil {
		ctx = context.Background()
	}
	b := &Budget{ctx: ctx, limits: make(map[Phase]int64)}
	for _, o := range opts {
		o(b)
	}
	if d, ok := ctx.Deadline(); ok && (!b.hasDeadline || d.Before(b.deadline)) {
		b.deadline, b.hasDeadline = d, true
	}
	return b
}

// limitFor returns the step cap for a phase (0 = unlimited).
func (b *Budget) limitFor(p Phase) int64 {
	if n, ok := b.limits[p]; ok {
		return n
	}
	return b.defLimit
}

// checkEvery is how many ticks pass between context/deadline checks,
// keeping Tick a couple of integer operations on the fast path while
// still noticing cancellation within well under 100ms (a check every
// 256 solver/BFS steps is microseconds of latency).
const checkEvery = 256

// Phase draws a fresh meter for phase p. Each call restarts the step
// count — a degraded retry of a phase gets its full allowance again.
// Nil-safe: a nil budget yields a nil (unlimited) meter.
func (b *Budget) Phase(p Phase) *Meter {
	if b == nil {
		return nil
	}
	return &Meter{b: b, phase: p, limit: b.limitFor(p)}
}

// Limited reports whether phase p runs under a step cap (as opposed to
// only cancellation/deadline checks). The dependence-graph build uses
// this to pick its metered single-pass form: deterministic truncation
// under a step cap requires ticking every step in order. Nil-safe.
func (b *Budget) Limited(p Phase) bool {
	return b != nil && b.limitFor(p) > 0
}

// Err checks cancellation and deadline only (no step spend) — for
// phase boundaries and code outside hot loops. Nil-safe.
func (b *Budget) Err(p Phase) error {
	if b == nil {
		return nil
	}
	return b.cancelErr(p)
}

func (b *Budget) cancelErr(p Phase) error {
	select {
	case <-b.ctx.Done():
		return &ErrCanceled{Phase: p, Cause: b.ctx.Err()}
	default:
	}
	if b.hasDeadline && time.Now().After(b.deadline) {
		return &ErrCanceled{Phase: p, Cause: context.DeadlineExceeded}
	}
	return nil
}

// Context returns the underlying context (context.Background() for a
// nil budget).
func (b *Budget) Context() context.Context {
	if b == nil {
		return context.Background()
	}
	return b.ctx
}

// Meter is a phase-scoped step counter. Not safe for concurrent use;
// each goroutine should draw its own.
type Meter struct {
	b     *Budget
	phase Phase
	limit int64
	spent int64
	until int64 // ticks remaining before the next cancellation check
}

// Tick spends one step. It returns a typed error once the phase limit
// is exhausted or the budget's context/deadline fires. Nil-safe: a nil
// meter never errs.
func (m *Meter) Tick() error { return m.TickN(1) }

// TickN spends n steps at once (for stages whose unit of work is a
// batch, e.g. all out-edges of a node).
func (m *Meter) TickN(n int64) error {
	if m == nil {
		return nil
	}
	m.spent += n
	if m.limit > 0 && m.spent > m.limit {
		return &ErrExhausted{Phase: m.phase, Limit: m.limit, Spent: m.spent}
	}
	m.until -= n
	if m.until <= 0 {
		m.until = checkEvery
		return m.b.cancelErr(m.phase)
	}
	return nil
}

// Err checks cancellation/deadline without spending a step.
func (m *Meter) Err() error {
	if m == nil {
		return nil
	}
	return m.b.cancelErr(m.phase)
}

// Spent returns the steps consumed so far.
func (m *Meter) Spent() int64 {
	if m == nil {
		return 0
	}
	return m.spent
}

// PhaseName returns the meter's phase ("" for a nil meter).
func (m *Meter) PhaseName() Phase {
	if m == nil {
		return ""
	}
	return m.phase
}
