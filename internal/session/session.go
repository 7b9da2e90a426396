// Package session turns the one-shot analysis pipeline into a
// reusable, demand-driven analysis session (the paper's §4 stance that
// slices are cheap enough to compute per query, applied to the whole
// pipeline). A Session owns a content-hashed artifact store covering
// every phase — per-file ASTs, the typed program, SSA IR, points-to,
// the dependence graph, and the derived CHA/mod-ref/context-sensitive
// artifacts — each memoized by the hash of its inputs, so repeated and
// multi-seed queries over the same program skip straight to slicing,
// and editing one source file invalidates exactly the artifacts
// downstream of it.
//
// Every phase runs sequentially on the goroutine that asks for it; a
// session's concurrency is the concurrency of its callers (the server's
// admission pool), and the store's single-flight slots make concurrent
// callers share one build of each artifact.
//
// analyzer.Analyze is a thin convenience wrapper over this package.
package session

import (
	"fmt"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"thinslice/internal/analysis/cha"
	"thinslice/internal/analysis/modref"
	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/budget"
	"thinslice/internal/csslice"
	"thinslice/internal/dataflow"
	"thinslice/internal/depgraph"
	"thinslice/internal/diskstore"
	"thinslice/internal/ir"
	"thinslice/internal/lang/ast"
	"thinslice/internal/lang/parser"
	"thinslice/internal/lang/prelude"
	"thinslice/internal/lang/types"
	"thinslice/internal/sdg"
)

// Stats counts the phase executions a session actually performed —
// cache hits do not increment. The warm-query tests assert on these.
type Stats struct {
	Parses        int // user source files parsed
	PreludeParses int // times the container prelude was parsed (process-wide cache)
	Checks        int // type checks
	Lowers        int // whole-program SSA lowerings (non-incremental path)
	Depgraphs     int // symbol dependency graph builds
	UnitLowers    int // per-method lowering units derived fresh
	UnitReuses    int // per-method lowering units reused from the store
	PointsTos     int // pointer analyses
	DeltaSolves   int // always 0: kept for the /statsz schema; pointer analyses are never re-derived by delta
	SDGs          int // dependence graph builds
	DeltaSDGs     int // always 0: kept for the /statsz schema; dependence graphs are never re-derived by delta
	CHAs          int // class-hierarchy call graph builds
	ModRefs       int // mod-ref computations
	CSGraphs      int // context-sensitive SDG builds
	Dataflows     int // IFDS dataflow solves
}

type config struct {
	objSens     bool
	containers  []string
	entries     []string
	noPrelude   bool
	verifyIR    bool
	budget      *budget.Budget
	store       *Store
	disk        *diskstore.Cache
	remote      RemoteFetch
	incremental bool
}

// Option configures Open.
type Option func(*config)

// WithObjSens toggles object-sensitive container handling in the
// pointer analysis (default on, the paper's precise configuration).
func WithObjSens(on bool) Option { return func(c *config) { c.objSens = on } }

// WithContainers overrides the set of container classes cloned
// object-sensitively.
func WithContainers(names []string) Option { return func(c *config) { c.containers = names } }

// WithEntries sets explicit entry methods by qualified name
// (e.g. "Main.main"); default is every static method named main.
func WithEntries(names ...string) Option { return func(c *config) { c.entries = names } }

// WithoutPrelude analyzes the sources without the container prelude.
func WithoutPrelude() Option { return func(c *config) { c.noPrelude = true } }

// WithVerifyIR runs ir.Verify over the lowered program and fails the
// pipeline with the violations found.
func WithVerifyIR() Option { return func(c *config) { c.verifyIR = true } }

// WithBudget bounds every phase the session runs by the given budget.
// Artifacts a budget truncates or degrades are never cached.
func WithBudget(b *budget.Budget) Option { return func(c *config) { c.budget = b } }

// InStore places the session's artifacts in an existing store, sharing
// them with every other session using that store.
func InStore(st *Store) Option { return func(c *config) { c.store = st } }

// WithIncremental assembles the session's IR artifact from per-method
// lowering units addressed by depgraph unit keys, so an edit re-lowers
// only the units whose keys changed; the assembled program is
// byte-identical to ir.Lower. It changes nothing else: the pointer
// analysis and dependence graph of each revision are built cold over
// that program (a cold build beat re-deriving them from the previous
// revision at every measured scale). thinslice watch and the server's
// /watch stream open their sessions with it.
func WithIncremental() Option { return func(c *config) { c.incremental = true } }

// WithDiskCache layers a persistent disk tier under the in-memory
// store: on a store miss the session first tries to decode the artifact
// from disk, and successful builds are encoded and published there. A
// disk entry that fails verification or decoding is quarantined and the
// artifact rebuilt — disk corruption never surfaces as a session error.
func WithDiskCache(c *diskstore.Cache) Option { return func(cfg *config) { cfg.disk = c } }

// RemoteFetch retrieves an already-verified artifact payload for
// (kind, key) from somewhere else — in practice another cluster
// replica's disk tier — or nil on a miss. Implementations must verify
// integrity (the cluster fetcher checks the container CRC) before
// returning bytes; the session still treats the payload as untrusted
// and quarantines it if structural decoding fails, so a byzantine
// source can cause a rebuild but never a wrong answer.
type RemoteFetch func(kind string, key Key) []byte

// WithRemoteFetch layers a remote tier under the disk tier: on a store
// and disk miss the session asks the fetcher before rebuilding, and a
// fetched payload is published to the local disk tier (when present)
// so the next miss is local. Fetch failures of any kind degrade to a
// normal cold build.
func WithRemoteFetch(f RemoteFetch) Option { return func(cfg *config) { cfg.remote = f } }

// Session is a stateful analysis over one evolving source set. All
// accessors are safe for concurrent use; artifacts are immutable.
type Session struct {
	mu       sync.Mutex
	cfg      config
	sources  map[string]string
	fileKeys map[string]Key
	stats    Stats
	// snap caches snapshot()'s derived view of the source set (every
	// phase lookup needs it, and re-hashing all sources per phase is
	// measurable). Invalidated by Update/Remove.
	snap struct {
		valid bool
		names []string
		srcs  map[string]string
		key   Key
	}
}

// Open starts a session over the given sources (name → content). The
// map is copied; use Update to evolve the source set afterwards.
func Open(sources map[string]string, opts ...Option) *Session {
	cfg := config{objSens: true, containers: prelude.ContainerClasses}
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.store == nil {
		cfg.store = NewStore()
	}
	s := &Session{
		cfg:      cfg,
		sources:  make(map[string]string, len(sources)),
		fileKeys: make(map[string]Key, len(sources)),
	}
	for name, src := range sources {
		s.sources[name] = src
		s.fileKeys[name] = hashParts("file", name, src)
	}
	return s
}

// Update adds or replaces one source file. Artifacts derived from the
// old content stay in the store (another session may still want them);
// this session's next query re-derives exactly the artifacts downstream
// of the change.
func (s *Session) Update(name, content string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.sources[name]; ok && old == content {
		// Fast path: identical content hashes to the identical file key,
		// so every derived artifact is already current — invalidate
		// nothing, not even the cached snapshot.
		return
	}
	s.sources[name] = content
	s.fileKeys[name] = hashParts("file", name, content)
	s.snap.valid = false
}

// Remove drops one source file from the session's source set.
func (s *Session) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.sources, name)
	delete(s.fileKeys, name)
	s.snap.valid = false
}

// Stats returns the phase-execution counters so far.
func (s *Session) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Store returns the artifact store backing this session.
func (s *Session) Store() *Store { return s.cfg.store }

// Budget returns the budget bounding this session's phases and the
// slicers it hands out (nil means unlimited).
func (s *Session) Budget() *budget.Budget { return s.cfg.budget }

// count applies a counter update under the session lock.
func (s *Session) count(f func(*Stats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
	s.cfg.store.countPhase(f)
}

// snapshot returns the current file set in deterministic name order
// together with the source-set key that roots all artifact keys. The
// view is cached between source mutations; callers must treat the
// returned slice and map as read-only.
func (s *Session) snapshot() (names []string, srcs map[string]string, srcKey Key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.snap.valid {
		return s.snap.names, s.snap.srcs, s.snap.key
	}
	srcs = make(map[string]string, len(s.sources)+1)
	keys := make(map[string]Key, len(s.sources)+1)
	for name, src := range s.sources {
		srcs[name] = src
		keys[name] = s.fileKeys[name]
		names = append(names, name)
	}
	if !s.cfg.noPrelude {
		if _, ok := srcs[prelude.FileName]; !ok {
			srcs[prelude.FileName] = prelude.Source
			keys[prelude.FileName] = hashParts("file", prelude.FileName, prelude.Source)
			names = append(names, prelude.FileName)
		}
	}
	sort.Strings(names)
	parts := []string{"srcset"}
	for _, name := range names {
		parts = append(parts, name, string(keys[name]))
	}
	s.snap.valid = true
	s.snap.names, s.snap.srcs, s.snap.key = names, srcs, hashParts(parts...)
	return s.snap.names, s.snap.srcs, s.snap.key
}

// PhaseHook is a test-only interception point consulted at every phase
// boundary with the phase about to run and the session's source-set
// key. A non-nil error aborts the phase with that error; a panic is
// recovered by the phase boundary like any other internal fault. The
// fault-injection harness (package faults) installs its registry here.
type PhaseHook func(p budget.Phase, srcKey Key) error

var phaseHook atomic.Pointer[PhaseHook]

// SetPhaseHook installs h (nil clears) and returns a func restoring
// the previous hook. Test-only: production sessions must run with no
// hook installed.
func SetPhaseHook(h PhaseHook) (restore func()) {
	var p *PhaseHook
	if h != nil {
		p = &h
	}
	old := phaseHook.Swap(p)
	return func() { phaseHook.Store(old) }
}

// SourceKey returns the content hash of the session's current source
// set (prelude included unless the session was opened WithoutPrelude).
// Equal keys mean the same program; the server's circuit breaker and
// the fault-injection registry key on it.
func (s *Session) SourceKey() Key {
	_, _, srcKey := s.snapshot()
	return srcKey
}

// phase runs f with the session's panic boundary: a panic inside any
// phase surfaces as a *budget.ErrInternal tagged p, never a crash. The
// budget's cancellation/deadline is checked first, mirroring the
// sequential pipeline's phase boundaries.
func (s *Session) phase(p budget.Phase, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &budget.ErrInternal{Phase: p, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := s.cfg.budget.Err(p); err != nil {
		return err
	}
	if h := phaseHook.Load(); h != nil {
		if err := (*h)(p, s.SourceKey()); err != nil {
			return err
		}
	}
	return f()
}

// preludeCache caches the parsed container prelude process-wide: its
// source is a compile-time constant, so every session (and every
// analyzer.Analyze call) shares one AST.
var preludeCache struct {
	mu      sync.Mutex
	classes []*ast.ClassDecl
	parses  int
}

// PreludeParseCount reports how many times the container prelude has
// been parsed in this process (expected: at most once).
func PreludeParseCount() int {
	preludeCache.mu.Lock()
	defer preludeCache.mu.Unlock()
	return preludeCache.parses
}

func parsedPrelude() ([]*ast.ClassDecl, bool, error) {
	preludeCache.mu.Lock()
	defer preludeCache.mu.Unlock()
	if preludeCache.classes == nil {
		classes, err := parser.ParseFile(prelude.FileName, prelude.Source)
		if err != nil {
			return nil, false, err
		}
		preludeCache.classes = classes
		preludeCache.parses++
		return classes, true, nil
	}
	return preludeCache.classes, false, nil
}

// diskGet returns the verified record payload stored under (kind, key)
// in the session's disk tier, or nil. Container-level corruption is
// already quarantined inside the cache.
func (s *Session) diskGet(kind string, key Key) []byte {
	if s.cfg.disk != nil {
		if payload, ok := s.cfg.disk.Get(kind, string(key)); ok {
			return payload
		}
	}
	if s.cfg.remote != nil {
		if payload := s.cfg.remote(kind, key); payload != nil {
			// Publish locally first: if structural decoding then rejects
			// the payload, the caller's diskQuarantine removes and counts
			// it, and the rebuild re-publishes clean bytes.
			if s.cfg.disk != nil {
				_ = s.cfg.disk.Put(kind, string(key), payload)
			}
			return payload
		}
	}
	return nil
}

// diskQuarantine reports a record whose container verified but whose
// payload failed structural decoding — content corruption the artifact
// layer cannot see. The entry is removed so the rebuild can re-publish.
func (s *Session) diskQuarantine(kind string, key Key, err error) {
	if s.cfg.disk != nil {
		s.cfg.disk.Quarantine(kind, string(key), err.Error())
	}
}

// diskPut encodes and publishes an artifact. Encode or publish failures
// are swallowed: persistence is an optimization, never a correctness
// dependency.
func (s *Session) diskPut(kind string, key Key, encode func() ([]byte, error)) {
	if s.cfg.disk == nil {
		return
	}
	payload, err := encode()
	if err != nil {
		return
	}
	_ = s.cfg.disk.Put(kind, string(key), payload)
}

// parseResult is the cached artifact of parsing one file. Parse errors
// are deterministic properties of the content, so they are cached too
// (as values, not store errors).
type parseResult struct {
	classes []*ast.ClassDecl
	err     error
}

// Info returns the parsed and type-checked program, building (or
// fetching) per-file ASTs and the typed Info on demand.
func (s *Session) Info() (*types.Info, error) {
	var info *types.Info
	err := s.phase(budget.PhaseLoad, func() error {
		names, srcs, srcKey := s.snapshot()
		key := hashParts("check", string(srcKey))
		v, err := s.cfg.store.get(key, budget.PhaseLoad, func() (any, bool, error) {
			prog := &ast.Program{}
			var all parser.ErrorList
			for _, name := range names {
				classes, perr := s.parseFile(name, srcs[name])
				prog.SrcBytes += len(srcs[name])
				prog.Classes = append(prog.Classes, classes...)
				if perr != nil {
					all = append(all, perr.(parser.ErrorList)...)
				}
			}
			if len(all) > 0 {
				return nil, false, all
			}
			s.count(func(st *Stats) { st.Checks++ })
			info, cerr := types.Check(prog)
			if cerr != nil {
				return nil, false, cerr
			}
			return info, true, nil
		})
		if err != nil {
			return err
		}
		info = v.(*types.Info)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return info, nil
}

// parseFile returns the AST of one file, via the process-wide prelude
// cache or the per-file content-keyed store.
func (s *Session) parseFile(name, src string) ([]*ast.ClassDecl, error) {
	if name == prelude.FileName && src == prelude.Source {
		classes, parsed, err := parsedPrelude()
		if parsed {
			s.count(func(st *Stats) { st.PreludeParses++ })
		}
		return classes, err
	}
	v, _ := s.cfg.store.get(hashParts("parse", name, src), budget.PhaseLoad, func() (any, bool, error) {
		s.count(func(st *Stats) { st.Parses++ })
		classes, err := parser.ParseFile(name, src)
		return parseResult{classes, err}, err == nil, nil
	})
	res := v.(parseResult)
	return res.classes, res.err
}

// Depgraph returns the cross-file symbol dependency graph of the
// current source set: one unit per lowering job, keyed by a content
// hash covering the unit's declaration and the deep fingerprints of
// every class its lowering can observe. Incremental sessions address
// per-method IR payloads in the store by these unit keys.
func (s *Session) Depgraph() (*depgraph.Graph, error) {
	info, err := s.Info()
	if err != nil {
		return nil, err
	}
	var g *depgraph.Graph
	err = s.phase(budget.PhaseLoad, func() error {
		_, _, srcKey := s.snapshot()
		key := hashParts("depg", string(srcKey))
		v, err := s.cfg.store.get(key, budget.PhaseLoad, func() (any, bool, error) {
			if payload := s.diskGet("depg", key); payload != nil {
				if decoded, derr := depgraph.DecodeGraph(payload); derr == nil {
					return decoded, true, nil
				} else {
					s.diskQuarantine("depg", key, derr)
				}
			}
			s.count(func(st *Stats) { st.Depgraphs++ })
			built := depgraph.Build(info)
			s.diskPut("depg", key, func() ([]byte, error) { return depgraph.EncodeGraph(built) })
			return built, true, nil
		})
		if err != nil {
			return err
		}
		g = v.(*depgraph.Graph)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// unitStoreKey addresses one per-method IR payload. The depgraph unit
// key already covers file content and referenced-symbol fingerprints,
// so two revisions (or two sessions) containing an identical unit share
// the entry — including a Remove followed by re-Adding the same file.
func unitStoreKey(depgraphKey string) Key { return hashParts("unit", depgraphKey) }

// lowerViaUnits assembles the program from per-method units: cached
// payloads are cloned, the dirty frontier is lowered fresh, and freshly
// derived units are published back to the store (and disk tier) under
// their unit keys. The result is byte-identical to ir.Lower.
func (s *Session) lowerViaUnits(info *types.Info, depg *depgraph.Graph) (*ir.Program, error) {
	reuse := make(map[string][]byte, len(depg.Units))
	cached := 0
	dirty := make(map[string]bool)
	for _, u := range depg.Units {
		uk := unitStoreKey(u.Key)
		if v, ok := s.cfg.store.peek(uk); ok {
			reuse[u.QName] = v.([]byte)
			cached++
			continue
		}
		if payload := s.diskGet("unit", uk); payload != nil {
			reuse[u.QName] = payload
			s.cfg.store.put(uk, payload)
			cached++
			continue
		}
		dirty[u.QName] = true
	}
	prog, lst, err := ir.LowerUnits(info, reuse)
	if err != nil {
		return nil, err
	}
	s.count(func(st *Stats) {
		st.UnitReuses += cached
		st.UnitLowers += lst.Lowered
	})
	if len(prog.Diags) > 0 {
		return prog, nil // caller surfaces the diagnostics; publish nothing
	}
	fresh := make(map[string]*ir.Method, len(dirty))
	for _, m := range prog.Methods {
		if q := m.Sig.QualifiedName(); dirty[q] {
			fresh[q] = m
		}
	}
	for _, u := range depg.Units {
		m := fresh[u.QName]
		if m == nil {
			continue
		}
		payload := ir.EncodeUnit(m)
		uk := unitStoreKey(u.Key)
		s.cfg.store.put(uk, payload)
		s.diskPut("unit", uk, func() ([]byte, error) { return payload, nil })
	}
	return prog, nil
}

// Prog returns the SSA IR lowered from the typed program, verified
// when the session was opened WithVerifyIR. Incremental sessions
// assemble it from per-method units addressed by depgraph keys.
func (s *Session) Prog() (*ir.Program, error) {
	info, err := s.Info()
	if err != nil {
		return nil, err
	}
	var depg *depgraph.Graph
	if s.cfg.incremental {
		if depg, err = s.Depgraph(); err != nil {
			return nil, err
		}
	}
	var prog *ir.Program
	err = s.phase(budget.PhaseLower, func() error {
		_, _, srcKey := s.snapshot()
		key := hashParts("ir", string(srcKey), strconv.FormatBool(s.cfg.verifyIR))
		v, err := s.cfg.store.get(key, budget.PhaseLower, func() (any, bool, error) {
			if payload := s.diskGet("ir", key); payload != nil {
				if p, derr := ir.DecodeProgram(payload, info); derr == nil {
					return p, true, nil
				} else {
					s.diskQuarantine("ir", key, derr)
				}
			}
			var p *ir.Program
			if depg != nil {
				var lerr error
				if p, lerr = s.lowerViaUnits(info, depg); lerr != nil {
					p = nil // unit payload failed to relink: fall back to a full lower
				}
			}
			if p == nil {
				s.count(func(st *Stats) { st.Lowers++ })
				p = ir.Lower(info)
			}
			if len(p.Diags) > 0 {
				return nil, false, p.Diags
			}
			s.diskPut("ir", key, func() ([]byte, error) { return ir.EncodeProgram(p) })
			return p, true, nil
		})
		if err != nil {
			return err
		}
		prog = v.(*ir.Program)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if s.cfg.verifyIR {
		if err := s.phase(budget.PhaseVerify, func() error {
			if verrs := ir.Verify(prog); len(verrs) > 0 {
				return fmt.Errorf("analyzer: IR verification failed: %w (%d violation(s))", verrs[0], len(verrs))
			}
			return nil
		}); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// ptsConfigKey captures the pointer-analysis configuration that shapes
// the points-to artifact and everything derived from it.
func (s *Session) ptsConfigKey(srcKey Key) Key {
	return hashParts("pts", string(srcKey),
		strconv.FormatBool(s.cfg.objSens),
		strings.Join(s.cfg.containers, "\x00"),
		strings.Join(s.cfg.entries, "\x00"))
}

// PointsTo returns the pointer-analysis result. Truncated or
// downgraded results (budget exhaustion) are returned but not cached.
func (s *Session) PointsTo() (*pointsto.Result, error) {
	prog, err := s.Prog()
	if err != nil {
		return nil, err
	}
	var pts *pointsto.Result
	err = s.phase(budget.PhasePointsTo, func() error {
		entries, err := resolveEntries(prog, s.cfg.entries)
		if err != nil {
			return err
		}
		_, _, srcKey := s.snapshot()
		key := s.ptsConfigKey(srcKey)
		v, err := s.cfg.store.get(key, budget.PhasePointsTo, func() (any, bool, error) {
			if payload := s.diskGet("pts", key); payload != nil {
				if res, derr := pointsto.DecodeResult(payload, prog); derr == nil {
					return res, true, nil
				} else {
					s.diskQuarantine("pts", key, derr)
				}
			}
			s.count(func(st *Stats) { st.PointsTos++ })
			res, aerr := pointsto.Analyze(prog, pointsto.Config{
				Entries:           entries,
				ObjSensContainers: s.cfg.objSens,
				ContainerClasses:  s.cfg.containers,
				Budget:            s.cfg.budget,
			})
			if aerr != nil {
				return nil, false, aerr
			}
			cacheable := !res.Truncated && !res.Downgraded
			if cacheable {
				s.diskPut("pts", key, func() ([]byte, error) { return pointsto.EncodeResult(res) })
			}
			return res, cacheable, nil
		})
		if err != nil {
			return err
		}
		pts = v.(*pointsto.Result)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return pts, nil
}

// Graph returns the dependence graph. Truncated graphs are not cached.
func (s *Session) Graph() (*sdg.Graph, error) {
	pts, err := s.PointsTo()
	if err != nil {
		return nil, err
	}
	prog, err := s.Prog()
	if err != nil {
		return nil, err
	}
	var g *sdg.Graph
	err = s.phase(budget.PhaseSDG, func() error {
		_, _, srcKey := s.snapshot()
		key := hashParts("sdg", string(s.ptsConfigKey(srcKey)))
		v, err := s.cfg.store.get(key, budget.PhaseSDG, func() (any, bool, error) {
			if payload := s.diskGet("sdg", key); payload != nil {
				if graph, derr := sdg.DecodeGraph(payload, prog, pts); derr == nil {
					return graph, true, nil
				} else {
					s.diskQuarantine("sdg", key, derr)
				}
			}
			s.count(func(st *Stats) { st.SDGs++ })
			graph, err := sdg.BuildBudget(prog, pts, s.cfg.budget)
			if err != nil {
				return nil, false, err
			}
			if !graph.Truncated {
				s.diskPut("sdg", key, func() ([]byte, error) { return sdg.EncodeGraph(graph) })
			}
			return graph, !graph.Truncated, nil
		})
		if err != nil {
			return err
		}
		g = v.(*sdg.Graph)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// CHA returns the class-hierarchy call graph rooted at the analysis
// entries (used by the checker suite).
func (s *Session) CHA() (*cha.CallGraph, error) {
	pts, err := s.PointsTo()
	if err != nil {
		return nil, err
	}
	prog, err := s.Prog()
	if err != nil {
		return nil, err
	}
	var cg *cha.CallGraph
	err = s.phase(budget.PhaseCheck, func() error {
		_, _, srcKey := s.snapshot()
		key := hashParts("cha", string(s.ptsConfigKey(srcKey)))
		v, err := s.cfg.store.get(key, budget.PhaseCheck, func() (any, bool, error) {
			if payload := s.diskGet("cha", key); payload != nil {
				if decoded, derr := cha.DecodeCallGraph(payload, prog); derr == nil {
					return decoded, true, nil
				} else {
					s.diskQuarantine("cha", key, derr)
				}
			}
			s.count(func(st *Stats) { st.CHAs++ })
			built := cha.Build(prog, pts.Entries())
			s.diskPut("cha", key, func() ([]byte, error) { return cha.EncodeCallGraph(built) })
			return built, true, nil
		})
		if err != nil {
			return err
		}
		cg = v.(*cha.CallGraph)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cg, nil
}

// ModRef returns the mod-ref summaries over the points-to result.
func (s *Session) ModRef() (*modref.Result, error) {
	pts, err := s.PointsTo()
	if err != nil {
		return nil, err
	}
	prog, err := s.Prog()
	if err != nil {
		return nil, err
	}
	var mr *modref.Result
	err = s.phase(budget.PhaseCheck, func() error {
		_, _, srcKey := s.snapshot()
		key := hashParts("modref", string(s.ptsConfigKey(srcKey)))
		v, err := s.cfg.store.get(key, budget.PhaseCheck, func() (any, bool, error) {
			if payload := s.diskGet("modref", key); payload != nil {
				if decoded, derr := modref.DecodeResult(payload, prog, pts); derr == nil {
					return decoded, true, nil
				} else {
					s.diskQuarantine("modref", key, derr)
				}
			}
			s.count(func(st *Stats) { st.ModRefs++ })
			computed := modref.Compute(prog, pts)
			s.diskPut("modref", key, func() ([]byte, error) { return modref.EncodeResult(computed) })
			return computed, true, nil
		})
		if err != nil {
			return err
		}
		mr = v.(*modref.Result)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return mr, nil
}

// Dataflow returns the solved IFDS results for problem p over the
// session's program, keyed by the problem's name and configuration on
// top of the pointer-analysis configuration (so a source edit or a
// points-to config change invalidates exactly the dataflow artifacts
// downstream). Results are cached in memory and on disk; a result is
// only cacheable when it and every upstream artifact it was computed
// from is complete — a truncated solve, or a solve over a truncated
// points-to or dependence graph, is returned but never cached.
func (s *Session) Dataflow(p dataflow.Problem) (*dataflow.Results, error) {
	pts, err := s.PointsTo()
	if err != nil {
		return nil, err
	}
	prog, err := s.Prog()
	if err != nil {
		return nil, err
	}
	g, err := s.Graph()
	if err != nil {
		return nil, err
	}
	cg, err := s.CHA()
	if err != nil {
		return nil, err
	}
	var res *dataflow.Results
	err = s.phase(budget.PhaseDataflow, func() error {
		_, _, srcKey := s.snapshot()
		key := hashParts("df", string(s.ptsConfigKey(srcKey)), p.Name(), p.ConfigKey())
		v, err := s.cfg.store.get(key, budget.PhaseDataflow, func() (any, bool, error) {
			upstreamComplete := !pts.Truncated && !pts.Downgraded && !g.Truncated
			if upstreamComplete {
				if payload := s.diskGet("df", key); payload != nil {
					if decoded, derr := dataflow.DecodeResults(payload, prog, pts, g); derr == nil {
						return decoded, true, nil
					} else {
						s.diskQuarantine("df", key, derr)
					}
				}
			}
			s.count(func(st *Stats) { st.Dataflows++ })
			solved, err := dataflow.Solve(dataflow.Inputs{Prog: prog, Pts: pts, Graph: g, CHA: cg}, p, s.cfg.budget)
			if err != nil {
				return nil, false, err
			}
			cacheable := upstreamComplete && !solved.Truncated
			if cacheable {
				s.diskPut("df", key, func() ([]byte, error) { return dataflow.EncodeResults(solved) })
			}
			return solved, cacheable, nil
		})
		if err != nil {
			return err
		}
		res = v.(*dataflow.Results)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// CSGraph returns the context-sensitive dependence graph with heap
// parameters (paper §5.3), for the csslice comparison slicer.
func (s *Session) CSGraph() (*csslice.Graph, error) {
	pts, err := s.PointsTo()
	if err != nil {
		return nil, err
	}
	prog, err := s.Prog()
	if err != nil {
		return nil, err
	}
	mr, err := s.ModRef()
	if err != nil {
		return nil, err
	}
	var g *csslice.Graph
	err = s.phase(budget.PhaseSDG, func() error {
		_, _, srcKey := s.snapshot()
		key := hashParts("cs", string(s.ptsConfigKey(srcKey)))
		v, err := s.cfg.store.get(key, budget.PhaseSDG, func() (any, bool, error) {
			s.count(func(st *Stats) { st.CSGraphs++ })
			return csslice.Build(prog, pts, mr), true, nil
		})
		if err != nil {
			return err
		}
		g = v.(*csslice.Graph)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return g, nil
}

// resolveEntries maps explicit entry names to methods. A name that
// matches nothing is an error naming the available candidates, rather
// than a silent empty analysis.
func resolveEntries(prog *ir.Program, names []string) ([]*ir.Method, error) {
	var entries []*ir.Method
	var missing []string
	for _, name := range names {
		found := false
		for _, m := range prog.Methods {
			if m.Name() == name {
				entries = append(entries, m)
				found = true
			}
		}
		if !found {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		var mains []string
		for _, m := range prog.Methods {
			if m.Sig.Static && m.Sig.Name == "main" {
				mains = append(mains, m.Name())
			}
		}
		sort.Strings(mains)
		candidates := "none found"
		if len(mains) > 0 {
			candidates = strings.Join(mains, ", ")
		}
		return nil, fmt.Errorf("analyzer: entry method(s) not found: %s (available main candidates: %s)",
			strings.Join(missing, ", "), candidates)
	}
	return entries, nil
}
