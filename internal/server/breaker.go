package server

import (
	"sync"
	"time"

	"thinslice/internal/session"
)

// breakerConfig shapes the per-program circuit breaker.
type breakerConfig struct {
	// failures is how many consecutive failures open the circuit.
	failures int
	// base is the first open window; it doubles per consecutive open
	// up to max (exponential backoff for persistently bad programs).
	base time.Duration
	max  time.Duration
	// maxKeys caps the tracked-program map; the least recently
	// touched state is dropped beyond it (a dropped program restarts
	// with a clean circuit — acceptable: tracking exists to shed
	// repeat offenders, not to be a permanent ledger).
	maxKeys int
	// now is the clock, injectable for tests.
	now func() time.Time
}

// breaker is a circuit breaker keyed by program content hash. Healthy
// programs carry no state at all — entries are created on first
// failure and deleted on success — so the map holds only the
// currently-suspicious tail of the workload.
//
// Per key the circuit is either closed (counting consecutive
// failures), open (rejecting until a backoff deadline), or half-open
// (one probe request allowed through after the deadline; its outcome
// closes or re-opens the circuit with a doubled window).
type breaker struct {
	cfg breakerConfig
	mu  sync.Mutex
	m   map[session.Key]*breakerState
}

type breakerState struct {
	fails     int  // consecutive failures while closed
	opens     int  // consecutive open windows (backoff exponent)
	open      bool // rejecting (or probing) until openUntil passes
	openUntil time.Time
	probing   bool // a half-open probe is in flight
	lastErr   string
	lastKind  string
	touched   time.Time
}

// breakerDecision is the outcome of admit.
type breakerDecision struct {
	allow bool
	// probe marks a half-open trial request: its outcome must be
	// reported via success/failure to settle the circuit.
	probe bool
	// retryAfter and the cached error describe a rejection.
	retryAfter time.Duration
	lastErr    string
	lastKind   string
}

func newBreaker(cfg breakerConfig) *breaker {
	if cfg.now == nil {
		cfg.now = time.Now
	}
	if cfg.maxKeys <= 0 {
		cfg.maxKeys = 1024
	}
	return &breaker{cfg: cfg, m: make(map[session.Key]*breakerState)}
}

// admit decides whether a request for program k may run.
func (b *breaker) admit(k session.Key) breakerDecision {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.m[k]
	if !ok {
		return breakerDecision{allow: true}
	}
	st.touched = b.cfg.now()
	if !st.open {
		return breakerDecision{allow: true}
	}
	if remaining := st.openUntil.Sub(b.cfg.now()); remaining > 0 {
		return breakerDecision{retryAfter: remaining, lastErr: st.lastErr, lastKind: st.lastKind}
	}
	if st.probing {
		// Another request is already probing the half-open circuit;
		// shed this one with a short retry rather than stampeding a
		// program that just failed repeatedly.
		return breakerDecision{retryAfter: b.cfg.base, lastErr: st.lastErr, lastKind: st.lastKind}
	}
	st.probing = true
	return breakerDecision{allow: true, probe: true}
}

// success reports a completed request: the program is healthy, drop
// its state entirely.
func (b *breaker) success(k session.Key) {
	b.mu.Lock()
	delete(b.m, k)
	b.mu.Unlock()
}

// abort un-reserves a half-open probe that never ran the pipeline
// (e.g. the worker pool rejected it), leaving the circuit as it was.
func (b *breaker) abort(k session.Key) {
	b.mu.Lock()
	if st, ok := b.m[k]; ok {
		st.probing = false
	}
	b.mu.Unlock()
}

// failure reports a failed request with the typed error it produced;
// kind/msg become the cached short-circuit response.
func (b *breaker) failure(k session.Key, kind, msg string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	st, ok := b.m[k]
	if !ok {
		b.evictOverCapLocked()
		st = &breakerState{}
		b.m[k] = st
	}
	st.touched = b.cfg.now()
	st.lastErr, st.lastKind = msg, kind
	if st.open && st.probing {
		// Failed probe: re-open immediately with a doubled window.
		st.probing = false
		st.opens++
		st.openUntil = b.cfg.now().Add(b.backoff(st.opens))
		return
	}
	st.fails++
	if st.fails >= b.cfg.failures {
		st.fails = 0
		st.open = true
		st.opens++
		st.openUntil = b.cfg.now().Add(b.backoff(st.opens))
	}
}

// backoff returns the open window for the nth consecutive open.
func (b *breaker) backoff(opens int) time.Duration {
	d := b.cfg.base
	for i := 1; i < opens; i++ {
		d *= 2
		if d >= b.cfg.max {
			return b.cfg.max
		}
	}
	if d > b.cfg.max {
		d = b.cfg.max
	}
	return d
}

// tracked returns how many programs currently carry breaker state, and
// how many of those are open.
func (b *breaker) tracked() (keys, open int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, st := range b.m {
		if st.open {
			open++
		}
	}
	return len(b.m), open
}

// stateCounts breaks the tracked programs down by circuit state at this
// instant: closed (still counting consecutive failures), open (hard
// rejecting until the backoff deadline), and half-open (past the
// deadline, so the next request becomes — or already is — a probe).
func (b *breaker) stateCounts() (closed, open, halfOpen int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.cfg.now()
	for _, st := range b.m {
		switch {
		case !st.open:
			closed++
		case st.openUntil.After(now) && !st.probing:
			open++
		default:
			halfOpen++
		}
	}
	return closed, open, halfOpen
}

// evictOverCapLocked drops the least recently touched state to make
// room for one more. Called with b.mu held.
func (b *breaker) evictOverCapLocked() {
	if len(b.m) < b.cfg.maxKeys {
		return
	}
	var oldestKey session.Key
	var oldest time.Time
	first := true
	for k, st := range b.m {
		if first || st.touched.Before(oldest) {
			first = false
			oldestKey, oldest = k, st.touched
		}
	}
	delete(b.m, oldestKey)
}
