package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"thinslice/internal/server"
)

// call is one request a workload sent, in order. The traced run
// replays the log in-process so its counters describe the same inputs
// the server saw.
type call struct {
	kind string // "batch", "check", "watch_open" or "watch_edit"
	// main marks the workload's main operation, as against a warm read.
	main    bool
	prog    *program
	sources map[string]string
	edit    server.WatchEdit
}

// env is what a runner needs from its run: the server, the two
// connections a workload may hold, the oracle and the seeded generator.
type env struct {
	srv      *child
	mainConn *http.Client // connection 1: the main operation
	readConn *http.Client // connection 2: warm reads, /readyz, /statsz
	orc      oracle
	rng      *rand.Rand
	log      *[]call // nil outside traced runs
}

func (e *env) record(c call) {
	if e.log != nil {
		*e.log = append(*e.log, c)
	}
}

// runner runs one workload's closed loop against one server.
type runner interface {
	// begin runs the first operation on a ready server; its answer is
	// checked but not timed, and it ends set-up.
	begin() error
	// main runs one timed main operation and returns its latency.
	main() (float64, error)
	// readTarget is the program and source set the warm reads after
	// the last main operation query.
	readTarget() (*program, map[string]string)
	close()
}

// workload is one traffic mix.
type workload struct {
	name string
	// readsPerOp warm /batch reads follow every main operation on the
	// second connection.
	readsPerOp int
	// traceOps is how many main operations the traced run replays;
	// the checker suite is timed on the read targets of the last
	// traceCheckerOps of them.
	traceOps, traceCheckerOps int
	// programs are the base programs the workload sends.
	programs  func() []*program
	newRunner func(e *env, progs []*program) runner
}

var workloads = []workload{
	{
		name:            "cold_javac",
		readsPerOp:      6,
		traceOps:        3,
		traceCheckerOps: 3,
		programs: func() []*program {
			return []*program{loadProgram("javac", 16), loadProgram("javac", 2)}
		},
		newRunner: func(e *env, progs []*program) runner {
			return &coldBatch{env: e, prog: progs[0], hot: progs[1]}
		},
	},
	{
		name:            "check_nanoxml",
		readsPerOp:      6,
		traceOps:        3,
		traceCheckerOps: 3,
		programs: func() []*program {
			return []*program{loadProgram("nanoxml", 4)}
		},
		newRunner: func(e *env, progs []*program) runner {
			return &coldCheck{env: e, prog: progs[0]}
		},
	},
	{
		name:       "watch_javac",
		readsPerOp: 4,
		traceOps:   20,
		// One run of the checker suite on javac ×10 takes about 10 s.
		traceCheckerOps: 1,
		programs: func() []*program {
			return []*program{loadProgram("javac", 10)}
		},
		newRunner: func(e *env, progs []*program) runner {
			return &watch{env: e, prog: progs[0], ed: newEditor(progs[0], e.rng)}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// coldBatch sends /batch over all seeds of a fresh variant of prog per
// operation; the warm reads between them query the small hot program,
// which an oversize artifact may have evicted.
type coldBatch struct {
	*env
	prog, hot *program
	ops       int
}

func (d *coldBatch) begin() error { _, err := d.main(); return err }

func (d *coldBatch) main() (float64, error) {
	d.ops++
	srcs := d.prog.variant(variantTag(d.rng, d.ops))
	d.record(call{kind: "batch", main: true, prog: d.prog, sources: srcs})
	body, err := json.Marshal(d.prog.batchRequest(srcs))
	if err != nil {
		return 0, err
	}
	ms, resp, err := post(d.mainConn, d.srv.url("/batch"), body)
	if err != nil {
		return ms, err
	}
	return ms, d.prog.checkSlices(d.orc, resp.Slices)
}

func (d *coldBatch) readTarget() (*program, map[string]string) { return d.hot, d.hot.sources() }

func (d *coldBatch) close() {}

// coldCheck sends /check with every checker over a fresh variant of
// prog per operation; the warm reads slice the variant just checked.
type coldCheck struct {
	*env
	prog *program
	ops  int
	last map[string]string
}

func (d *coldCheck) begin() error { _, err := d.main(); return err }

func (d *coldCheck) main() (float64, error) {
	d.ops++
	d.last = d.prog.variant(variantTag(d.rng, d.ops))
	d.record(call{kind: "check", main: true, prog: d.prog, sources: d.last})
	body, err := json.Marshal(server.Request{Sources: d.last})
	if err != nil {
		return 0, err
	}
	ms, resp, err := post(d.mainConn, d.srv.url("/check"), body)
	if err != nil {
		return ms, err
	}
	return ms, d.prog.checkFindings(d.orc, resp.Findings)
}

func (d *coldCheck) readTarget() (*program, map[string]string) { return d.prog, d.last }

func (d *coldCheck) close() {}

// watch holds one /watch stream; each operation is one seeded edit and
// its latency runs from sending the edit to reading its event.
type watch struct {
	*env
	prog   *program
	ed     *editor
	stream *watchStream
	srcs   map[string]string
	rev    int
}

func (d *watch) begin() error {
	d.srcs = d.prog.sources()
	d.record(call{kind: "watch_open", prog: d.prog, sources: d.srcs})
	s, err := openWatch(d.srv.addr, server.Request{Sources: d.srcs, Seeds: d.prog.seeds})
	if err != nil {
		return err
	}
	d.stream = s
	ev, err := s.next()
	if err != nil {
		return err
	}
	return d.checkEvent(ev)
}

func (d *watch) main() (float64, error) {
	edit, srcs, _ := d.ed.next()
	d.srcs = srcs
	d.rev++
	d.record(call{kind: "watch_edit", main: true, prog: d.prog, sources: srcs, edit: edit})
	ev, ms, err := d.roundTrip(edit)
	if err != nil {
		return ms, err
	}
	return ms, d.checkEvent(ev)
}

func (d *watch) roundTrip(edit server.WatchEdit) (server.WatchEvent, float64, error) {
	b, err := json.Marshal(edit)
	if err != nil {
		return server.WatchEvent{}, 0, err
	}
	start := time.Now()
	if err := d.stream.sendRaw(b); err != nil {
		return server.WatchEvent{}, 0, err
	}
	ev, err := d.stream.next()
	return ev, msSince(start), err
}

func (d *watch) checkEvent(ev server.WatchEvent) error {
	if ev.Rev != d.rev {
		return fmt.Errorf("watch event for revision %d, want %d", ev.Rev, d.rev)
	}
	if ev.Status != "ok" {
		return fmt.Errorf("watch revision %d: status %s kind %s: %s", ev.Rev, ev.Status, ev.Kind, ev.Error)
	}
	return d.prog.checkSlices(d.orc, ev.Slices)
}

func (d *watch) readTarget() (*program, map[string]string) { return d.prog, d.srcs }

func (d *watch) close() {
	if d.stream != nil {
		d.stream.close()
	}
}

// readRound sends n warm /batch reads of the runner's read target on
// the read connection and returns their latencies and failures.
func readRound(e *env, d runner, n int) ([]float64, []error) {
	p, srcs := d.readTarget()
	body, err := json.Marshal(p.batchRequest(srcs))
	if err != nil {
		return nil, []error{err}
	}
	var lat []float64
	var errs []error
	for i := 0; i < n; i++ {
		e.record(call{kind: "batch", prog: p, sources: srcs})
		ms, resp, err := post(e.readConn, e.srv.url("/batch"), body)
		if err == nil {
			err = p.checkSlices(e.orc, resp.Slices)
		}
		if err != nil {
			errs = append(errs, err)
			continue
		}
		lat = append(lat, ms)
	}
	return lat, errs
}
