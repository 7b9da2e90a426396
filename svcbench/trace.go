package main

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"time"

	"thinslice/internal/analysis/pointsto"
	"thinslice/internal/analyzer"
	"thinslice/internal/budget"
	"thinslice/internal/checkers"
	"thinslice/internal/core"
	"thinslice/internal/ir"
	"thinslice/internal/sdg"
	"thinslice/internal/server"
	"thinslice/internal/session"
)

// serverStoreLimits are `thinslice serve`'s default artifact store caps
// (256 entries, 256 MiB estimated). The traced run replays against a
// store bounded the same way, so evictions it sees are the server's.
var serverStoreLimits = session.StoreLimits{MaxEntries: 256, MaxCost: 256 << 20}

// counters are the session.* figures: phase builds and store traffic
// per main operation, between two snapshots of the same counters the
// server serves at /statsz. They repeat exactly for the same inputs.
type counters struct {
	SDGBuildsPerOp float64
	PtsBuildsPerOp float64
	EvictionsPerOp float64
	StoreHitRatio  float64
	DeltaRatio     float64
	UnitReuseRatio float64
	DataflowsPerOp float64
}

func deriveCounters(pb, pa session.Stats, sb, sa session.StoreStats, ops int) counters {
	n := float64(ops)
	sdgs, deltaSDGs := pa.SDGs-pb.SDGs, pa.DeltaSDGs-pb.DeltaSDGs
	pts, deltaPts := pa.PointsTos-pb.PointsTos, pa.DeltaSolves-pb.DeltaSolves
	hits, misses := sa.Hits-sb.Hits, sa.Misses-sb.Misses
	lowers, reuses := pa.UnitLowers-pb.UnitLowers, pa.UnitReuses-pb.UnitReuses
	return counters{
		SDGBuildsPerOp: float64(sdgs+deltaSDGs) / n,
		PtsBuildsPerOp: float64(pts+deltaPts) / n,
		EvictionsPerOp: float64(sa.Evictions-sb.Evictions) / n,
		StoreHitRatio:  ratio(hits, hits+misses),
		DeltaRatio:     ratio(int64(deltaSDGs+deltaPts), int64(sdgs+deltaSDGs+pts+deltaPts)),
		UnitReuseRatio: ratio(int64(reuses), int64(reuses+lowers)),
		DataflowsPerOp: float64(pa.Dataflows-pb.Dataflows) / n,
	}
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (c counters) asMap() map[string]float64 {
	return map[string]float64{
		"session.sdg_builds_per_op": c.SDGBuildsPerOp,
		"session.pts_builds_per_op": c.PtsBuildsPerOp,
		"session.evictions_per_op":  c.EvictionsPerOp,
		"session.store_hit_ratio":   c.StoreHitRatio,
		"session.delta_ratio":       c.DeltaRatio,
		"session.unit_reuse_ratio":  c.UnitReuseRatio,
		"session.dataflows_per_op":  c.DataflowsPerOp,
	}
}

// traced is the --trace 1 run. It sends the workload's set-up operation
// and traceOps cycles to one server, scraping /statsz around the
// cycles; replays the same calls in-process against a store bounded
// like the server's, whose counters must equal the scraped ones; and
// then times the calls into each layer's public functions on the same
// inputs.
func traced(cfg runConfig, rec *record) (result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	var log []call
	s, setup, err := start(cfg, rng, &log, rec)
	if err != nil {
		return result{}, err
	}
	rec.SetupS = []float64{setup}
	mark := len(log)
	res := result{Metrics: map[string]metric{}, Attempted: rec.SetupAttempted, Failed: rec.SetupFailed}
	before, err := s.srv.stats(s.readConn)
	if err != nil {
		s.stop()
		return result{}, err
	}
	for i := 0; i < cfg.w.traceOps; i++ {
		a, f := cycle(s, cfg.w.readsPerOp, rec)
		res.Attempted += a
		res.Failed += f
	}
	after, err := s.srv.stats(s.readConn)
	s.stop()
	if err != nil {
		return result{}, err
	}
	rec.StatsBefore, rec.StatsAfter = &before, &after
	rec.FailedKinds = failedKinds(before.Requests, after.Requests)
	rec.Main, rec.Read = summarize(rec.MainMS), summarize(rec.ReadMS)
	servedCounters := deriveCounters(before.Phases, after.Phases, before.Store, after.Store, cfg.w.traceOps)
	rec.Counters = servedCounters.asMap()

	replayed, errs := replay(log, mark, cfg.w.traceOps, cfg.orc)
	for _, e := range errs {
		rec.failure(fmt.Errorf("in-process replay: %w", e))
	}
	countersMatch := replayed == servedCounters
	if !countersMatch {
		rec.Notes = append(rec.Notes, fmt.Sprintf("session counters differ: /statsz %+v, in-process %+v", servedCounters, replayed))
	}

	lay := &layers{samples: map[string][]float64{}, rec: rec, orc: cfg.orc}
	if err := lay.run(cfg.w, log[mark:]); err != nil {
		return result{}, fmt.Errorf("layer pass: %w", err)
	}
	// The server's own share of a warm read: the served read median
	// less the in-process SliceAll median on the same program.
	lay.add("server.self_ms", median(rec.ReadMS)-median(lay.samples["core.slice_ms"]))
	rec.Layers = lay.samples

	res.Correct = res.Failed == 0 && len(errs) == 0 && countersMatch
	counts := replayed.asMap()
	for _, m := range layerMetrics {
		v, ok := lay.value(m.name)
		if !ok {
			if v, ok = counts[m.name]; !ok {
				return result{}, fmt.Errorf("no value for per-layer metric %s", m.name)
			}
		}
		res.Metrics[m.name] = metric{v, m.unit}
	}
	return res, nil
}

// layerMetrics lists the per-layer metrics a traced run reports.
var layerMetrics = []struct{ name, unit string }{
	{"lang.check_ms", "ms"},
	{"depgraph.build_ms", "ms"},
	{"ir.lower_ms", "ms"},
	{"ir.instrs", "count"},
	{"pointsto.solve_ms", "ms"},
	{"pointsto.cg_nodes", "count"},
	{"pointsto.objects", "count"},
	{"pointsto.alloc_mb", "MB"},
	{"sdg.build_ms", "ms"},
	{"sdg.nodes", "count"},
	{"sdg.edges", "count"},
	{"sdg.heap_edges", "count"},
	{"sdg.alloc_mb", "MB"},
	{"artifact.sdg_encode_ms", "ms"},
	{"artifact.sdg_bytes", "bytes"},
	{"core.slice_ms", "ms"},
	{"core.slice_stmts", "count"},
	{"checkers.run_ms", "ms"},
	{"checkers.nilderef_ms", "ms"},
	{"checkers.uninitfield_ms", "ms"},
	{"checkers.unsafecast_ms", "ms"},
	{"checkers.taint_ms", "ms"},
	{"checkers.typestate_ms", "ms"},
	{"checkers.defuninit_ms", "ms"},
	{"session.sdg_builds_per_op", "1/op"},
	{"session.pts_builds_per_op", "1/op"},
	{"session.evictions_per_op", "1/op"},
	{"session.store_hit_ratio", "ratio"},
	{"session.delta_ratio", "ratio"},
	{"session.unit_reuse_ratio", "ratio"},
	{"session.dataflows_per_op", "1/op"},
	{"server.self_ms", "ms"},
}

// replay re-issues the logged calls in-process, the way the server's
// handlers issue them, against a fresh store with the server's default
// limits. It checks every answer against the oracle and returns the
// counters between log[mark] and the end.
func replay(log []call, mark, ops int, orc oracle) (counters, []error) {
	st := session.NewBoundedStore(serverStoreLimits)
	var errs []error
	var watchSess *session.Session
	var pb session.Stats
	var sb session.StoreStats
	for i, c := range log {
		if i == mark {
			pb, sb = st.PhaseStats(), st.Stats()
		}
		var err error
		switch c.kind {
		case "batch":
			sess := session.Open(c.sources, session.InStore(st), session.WithBudget(budget.New(context.Background())))
			err = answerSlices(sess, c.prog, orc)
		case "check":
			sess := session.Open(c.sources, session.InStore(st), session.WithBudget(budget.New(context.Background())))
			err = answerCheck(sess, c.prog, orc)
		case "watch_open":
			watchSess = session.Open(c.sources, session.InStore(st), session.WithIncremental())
			err = answerSlices(watchSess, c.prog, orc)
		case "watch_edit":
			applyEdit(watchSess, c.edit)
			err = answerSlices(watchSess, c.prog, orc)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	return deriveCounters(pb, st.PhaseStats(), sb, st.Stats(), ops), errs
}

// applyEdit applies a watch edit the way the /watch handler does.
func applyEdit(sess *session.Session, edit server.WatchEdit) {
	for name, content := range edit.Update {
		sess.Update(name, content)
	}
	for _, name := range edit.Remove {
		sess.Remove(name)
	}
}

// answerSlices makes the /batch handler's calls (SliceAll, then the
// partial-result probe of PointsTo and Graph) and checks the slices.
func answerSlices(sess *session.Session, p *program, orc oracle) error {
	answers, err := sliceAnswers(sess, p)
	if err != nil {
		return err
	}
	if _, err := sess.PointsTo(); err != nil {
		return err
	}
	if _, err := sess.Graph(); err != nil {
		return err
	}
	return p.checkSlices(orc, answers)
}

// sliceAnswers slices all of p's seeds and renders the answers the way
// the server does.
func sliceAnswers(sess *session.Session, p *program) ([]server.SliceResult, error) {
	seeds, err := sessionSeeds(p)
	if err != nil {
		return nil, err
	}
	results, err := sess.SliceAll(core.Options{Mode: core.Thin}, seeds)
	if err != nil {
		return nil, err
	}
	answers := make([]server.SliceResult, 0, len(results))
	for _, r := range results {
		sr := server.SliceResult{Seed: r.Seed.String()}
		if r.Slice != nil {
			for _, pos := range r.Slice.Lines() {
				sr.Lines = append(sr.Lines, fmt.Sprintf("%s:%d", pos.File, pos.Line))
			}
		}
		answers = append(answers, sr)
	}
	return answers, nil
}

// answerCheck makes the /check handler's calls and checks the findings.
func answerCheck(sess *session.Session, p *program, orc oracle) error {
	fs, err := checkAnswers(sess)
	if err != nil {
		return err
	}
	return p.checkFindings(orc, fs)
}

// checkAnswers runs every checker and renders the findings the way the
// server does.
func checkAnswers(sess *session.Session) ([]server.Finding, error) {
	checks, err := checkers.Select("all")
	if err != nil {
		return nil, err
	}
	a, err := analyzer.FromSession(sess)
	if err != nil {
		return nil, err
	}
	rep := checkers.Run(a, checks, checkers.Config{})
	fs := make([]server.Finding, 0, len(rep.Findings))
	for _, f := range rep.Findings {
		fs = append(fs, server.Finding{Checker: f.Checker, File: f.Pos.File, Line: f.Pos.Line, Message: f.Message})
	}
	return fs, nil
}

func sessionSeeds(p *program) ([]session.Seed, error) {
	seeds := make([]session.Seed, 0, len(p.seeds))
	for _, raw := range p.seeds {
		s, err := parseSeed(raw)
		if err != nil {
			return nil, err
		}
		seeds = append(seeds, s)
	}
	return seeds, nil
}

// layers times calls into each layer's public functions on the traced
// inputs and keeps one sample list per metric.
type layers struct {
	samples map[string][]float64
	rec     *record
	orc     oracle
}

func (l *layers) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }

func (l *layers) value(name string) (float64, bool) {
	s, ok := l.samples[name]
	if !ok {
		return 0, false
	}
	return median(s), true
}

// run times the layers over the logged calls after set-up: the build
// pipeline of every main operation's program, warm slicing of the read
// target that followed it, and the checker suite on the read targets
// of the last traceCheckerOps operations.
func (l *layers) run(w workload, calls []call) error {
	var mains []int
	for i, c := range calls {
		if c.main {
			mains = append(mains, i)
		}
	}
	var watchSess *session.Session
	if len(calls) > 0 && calls[0].kind == "watch_edit" {
		// The /watch handler's session: incremental, unbudgeted, at
		// revision 0 of the base program.
		p := calls[0].prog
		watchSess = session.Open(p.sources(), session.InStore(session.NewBoundedStore(serverStoreLimits)), session.WithIncremental())
		if err := answerSlices(watchSess, p, l.orc); err != nil {
			return err
		}
	}
	for k, i := range mains {
		c := calls[i]
		runtime.GC()
		sess := watchSess
		if sess == nil {
			st := session.NewBoundedStore(serverStoreLimits)
			sess = session.Open(c.sources, session.InStore(st), session.WithBudget(budget.New(context.Background())))
		} else {
			applyEdit(sess, c.edit)
		}
		if err := l.pipeline(sess); err != nil {
			return fmt.Errorf("%s: %w", c.prog.key, err)
		}
		if i+1 >= len(calls) || calls[i+1].main {
			return fmt.Errorf("no read follows main operation %d", k)
		}
		read := calls[i+1]
		if err := l.slicing(read, sess.Store()); err != nil {
			return fmt.Errorf("%s: %w", read.prog.key, err)
		}
		if k >= len(mains)-w.traceCheckerOps {
			runtime.GC()
			if err := l.checkers(read); err != nil {
				return fmt.Errorf("%s: %w", read.prog.key, err)
			}
		}
	}
	return nil
}

// timeCall times f as one sample of metric name. The session's counter
// delta around the call must show only the builds named in own; any
// other build is an artifact rebuilt after an eviction, which is noted
// in the run record, and the call is then no sample of name.
func (l *layers) timeCall(sess *session.Session, name string, own []string, f func() error) error {
	before := sess.Stats()
	start := time.Now()
	err := f()
	ms := msSince(start)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	clean := true
	for field, n := range statsDelta(sess.Stats(), before) {
		if !slices.Contains(own, field) {
			clean = false
			l.rec.Notes = append(l.rec.Notes, fmt.Sprintf("%s rebuilt %s x%d", name, field, n))
		}
	}
	if clean {
		l.add(name, ms)
	}
	return nil
}

// statsDelta returns the non-zero differences a-b by counter name.
func statsDelta(a, b session.Stats) map[string]int {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	d := map[string]int{}
	for i := 0; i < va.NumField(); i++ {
		if n := int(va.Field(i).Int() - vb.Field(i).Int()); n != 0 {
			d[va.Type().Field(i).Name] = n
		}
	}
	return d
}

// allocMB runs f and returns the megabytes it allocated.
func allocMB(f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
}

// pipeline times the build of every artifact of sess in pipeline
// order, so each call builds exactly its own layer's artifact.
func (l *layers) pipeline(sess *session.Session) error {
	var err error
	run := func(name string, own []string, f func() error) {
		if err == nil {
			err = l.timeCall(sess, name, own, f)
		}
	}
	run("lang.check_ms", []string{"Parses", "PreludeParses", "Checks"}, func() error {
		_, err := sess.Info()
		return err
	})
	run("depgraph.build_ms", []string{"Depgraphs"}, func() error {
		_, err := sess.Depgraph()
		return err
	})
	var prog *ir.Program
	run("ir.lower_ms", []string{"Lowers", "UnitLowers", "UnitReuses"}, func() error {
		var err error
		prog, err = sess.Prog()
		return err
	})
	var pts *pointsto.Result
	var ptsMB float64
	run("pointsto.solve_ms", []string{"PointsTos", "DeltaSolves"}, func() error {
		var err error
		ptsMB = allocMB(func() { pts, err = sess.PointsTo() })
		return err
	})
	var g *sdg.Graph
	var sdgMB float64
	run("sdg.build_ms", []string{"SDGs", "DeltaSDGs"}, func() error {
		var err error
		sdgMB = allocMB(func() { g, err = sess.Graph() })
		return err
	})
	if err != nil {
		return err
	}
	l.add("ir.instrs", float64(prog.NumInstrs))
	l.add("pointsto.cg_nodes", float64(pts.NumCGNodes()))
	l.add("pointsto.objects", float64(len(pts.Objects())))
	l.add("pointsto.alloc_mb", ptsMB)
	l.add("sdg.nodes", float64(g.NumNodes()))
	l.add("sdg.edges", float64(g.NumEdges()))
	l.add("sdg.heap_edges", float64(heapEdges(g)))
	l.add("sdg.alloc_mb", sdgMB)
	start := time.Now()
	enc, err := sdg.EncodeGraph(g)
	if err != nil {
		return fmt.Errorf("encoding the SDG: %w", err)
	}
	l.add("artifact.sdg_encode_ms", msSince(start))
	l.add("artifact.sdg_bytes", float64(len(enc)))
	return nil
}

// heapEdges counts the store-to-load edges of g.
func heapEdges(g *sdg.Graph) int {
	n := 0
	for v := 0; v < g.NumNodes(); v++ {
		for _, d := range g.Deps(sdg.Node(v)) {
			if d.Kind == sdg.EdgeHeap {
				n++
			}
		}
	}
	return n
}

// sliceRepeats is how many warm SliceAll calls one read target gets.
const sliceRepeats = 5

// slicing times warm SliceAll on the read target the way a /batch read
// makes it: a new budgeted session over the shared store. The first
// call builds whatever the store lacks and is not a sample; a later
// call that rebuilt anything is noted and not a sample either.
func (l *layers) slicing(read call, st *session.Store) error {
	seeds, err := sessionSeeds(read.prog)
	if err != nil {
		return err
	}
	open := func() *session.Session {
		return session.Open(read.sources, session.InStore(st), session.WithBudget(budget.New(context.Background())))
	}
	if err := answerSlices(open(), read.prog, l.orc); err != nil {
		return err
	}
	for i := 0; i < sliceRepeats; i++ {
		sess := open()
		var results []session.SeedResult
		if err := l.timeCall(sess, "core.slice_ms", nil, func() error {
			var err error
			results, err = sess.SliceAll(core.Options{Mode: core.Thin}, seeds)
			return err
		}); err != nil {
			return err
		}
		if i == 0 {
			stmts := 0
			for _, r := range results {
				if r.Slice != nil {
					stmts += r.Slice.Size()
				}
			}
			l.add("core.slice_stmts", float64(stmts))
		}
	}
	return nil
}

// checkers times the whole suite on a fresh session of the read target,
// then each checker alone, in turn, on a second fresh session shared by
// the six runs; the pipeline artifacts are built before any timing.
func (l *layers) checkers(read call) error {
	analysis := func() (*analyzer.Analysis, error) {
		st := session.NewBoundedStore(serverStoreLimits)
		return analyzer.FromSession(session.Open(read.sources, session.InStore(st), session.WithBudget(budget.New(context.Background()))))
	}
	a, err := analysis()
	if err != nil {
		return err
	}
	start := time.Now()
	checkers.Run(a, checkers.All(), checkers.Config{})
	l.add("checkers.run_ms", msSince(start))
	runtime.GC()
	if a, err = analysis(); err != nil {
		return err
	}
	for _, c := range checkers.All() {
		start := time.Now()
		checkers.Run(a, []checkers.Checker{c}, checkers.Config{})
		l.add("checkers."+c.Name()+"_ms", msSince(start))
	}
	return nil
}
