// Command svcbench is the repository's service benchmark. It starts a
// real `thinslice serve` child process at default settings and drives
// it from this one process with closed loops, at most two connections
// per workload:
//
//	svcbench --bin <thinslice> --workload cold_javac --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics of one timed run;
// with --trace 1 it replays the same kind of inputs through the server
// and then in-process, timing the calls into each layer from outside.
// The last line of standard output is the result object; a JSON record
// with the raw samples, /statsz scrapes and a host fingerprint goes to
// --out. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"thinslice/internal/server"
)

// Set-up is repeated this many times per run and reported as a median;
// the last server started is the one the timed loop measures.
const setupLaunches = 3

// hardStop bounds a whole run, well inside the 180 s a run may take.
const hardStop = 150 * time.Second

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svcbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold_javac, check_nanoxml or watch_javac")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "how long the timed loop measures")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the timed one")
	bin := fs.String("bin", "", "thinslice binary to serve")
	out := fs.String("out", "", "directory for the run record (empty: none)")
	oraclePath := fs.String("write-oracle", "", "recompute the oracle digests into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *oraclePath != "" {
		if err := writeOracle(*oraclePath); err != nil {
			fmt.Fprintln(stderr, "svcbench:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "usage: svcbench --bin <thinslice> --workload <name> --seed <n> --seconds <s> --trace <0|1>")
		return 2
	}
	orc, err := loadOracle()
	if err != nil {
		fmt.Fprintln(stderr, "svcbench:", err)
		return 1
	}
	// The load generator and the traced run use the server's CPU
	// count, so in-process layer times compare with the served ones.
	gmp := runtime.NumCPU()
	runtime.GOMAXPROCS(gmp)
	cfg := runConfig{
		w: w, seed: *seed, seconds: *seconds, bin: *bin, gmp: gmp, orc: orc,
		progs: w.programs(),
	}
	rec := record{Fingerprint: fingerprintOf(cfg, *trace == 1)}
	var res result
	if *trace == 1 {
		res, err = traced(cfg, &rec)
	} else {
		res, err = timed(cfg, &rec)
	}
	if err != nil {
		fmt.Fprintln(stderr, "svcbench:", err)
		return 1
	}
	rec.Result = res
	if *out != "" {
		if err := writeRecord(*out, &rec); err != nil {
			fmt.Fprintln(stderr, "svcbench:", err)
			return 1
		}
	}
	for _, f := range rec.Failures {
		fmt.Fprintln(stderr, "svcbench: failed:", f)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "svcbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runConfig is one run's fixed inputs.
type runConfig struct {
	w       workload
	seed    int64
	seconds int
	bin     string
	gmp     int
	orc     oracle
	progs   []*program
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// fingerprint identifies the host and inputs of one run.
type fingerprint struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Programs are the base programs sent, as "<bench>@<scale>".
	Programs []string `json:"programs"`
	Started  string   `json:"started"`
}

func fingerprintOf(cfg runConfig, trace bool) fingerprint {
	f := fingerprint{
		Workload: cfg.w.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: trace,
		NProc: runtime.NumCPU(), GOMAXPROCS: cfg.gmp, GoVersion: runtime.Version(),
		Started: time.Now().UTC().Format(time.RFC3339),
	}
	for _, p := range cfg.progs {
		f.Programs = append(f.Programs, p.key)
	}
	return f
}

// record is the JSON file kept with every run.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	SetupS      []float64   `json:"setup_s"`
	// SetupAttempted and SetupFailed count the checked, untimed first
	// operations; they are part of the result's attempted and failed.
	SetupAttempted int                  `json:"setup_attempted"`
	SetupFailed    int                  `json:"setup_failed"`
	MainMS         []float64            `json:"main_ms"`
	ReadMS         []float64            `json:"read_ms"`
	Main           summary              `json:"main"`
	Read           summary              `json:"read"`
	Counters       map[string]float64   `json:"counters,omitempty"`
	FailedKinds    map[string]int64     `json:"failed_kinds,omitempty"`
	StatsBefore    *server.Stats        `json:"statsz_before,omitempty"`
	StatsAfter     *server.Stats        `json:"statsz_after,omitempty"`
	Layers         map[string][]float64 `json:"layer_samples,omitempty"`
	Notes          []string             `json:"notes,omitempty"`
	Failures       []string             `json:"failures,omitempty"`
	Result         result               `json:"result"`
}

// failure records one failed operation; the first few messages are kept.
func (r *record) failure(err error) {
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, err.Error())
	}
}

func writeRecord(dir string, r *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f := r.Fingerprint
	name := fmt.Sprintf("%s-seed%d-trace%t-%d.json", f.Workload, f.Seed, f.Trace, time.Now().UnixNano())
	b, err := json.MarshalIndent(r, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

// served holds one launched server and the two connections of a
// workload.
type served struct {
	env
	d runner
}

// start launches a server, waits for /readyz and runs the workload's
// first operation. It returns the set-up time in seconds. A first
// operation that reached the server but failed is recorded in rec as a
// failed operation; only a server that cannot be reached ends the run.
func start(cfg runConfig, rng *rand.Rand, log *[]call, rec *record) (*served, float64, error) {
	srv, err := launch(cfg.bin, cfg.gmp)
	if err != nil {
		return nil, 0, err
	}
	s := &served{env: env{srv: srv, mainConn: newConn(), readConn: newConn(), orc: cfg.orc, rng: rng, log: log}}
	if err := srv.waitReady(s.readConn); err != nil {
		s.stop()
		return nil, 0, err
	}
	s.d = cfg.w.newRunner(&s.env, cfg.progs)
	err = s.d.begin()
	setup := time.Since(srv.started).Seconds()
	rec.SetupAttempted++
	if err != nil {
		if errors.Is(err, errTransport) {
			s.stop()
			return nil, 0, fmt.Errorf("set-up operation: %w", err)
		}
		rec.SetupFailed++
		rec.failure(fmt.Errorf("set-up operation: %w", err))
	}
	return s, setup, nil
}

// stop closes the workload's connections and stops the server.
func (s *served) stop() {
	if s.d != nil {
		s.d.close()
	}
	s.mainConn.CloseIdleConnections()
	s.readConn.CloseIdleConnections()
	s.srv.stop()
}

// cycle runs one main operation and its warm reads, appending samples
// to rec and reporting how many operations it attempted and failed.
func cycle(s *served, readsPerOp int, rec *record) (attempted, failed int) {
	ms, err := s.d.main()
	attempted++
	if err != nil {
		failed++
		rec.failure(err)
	} else {
		rec.MainMS = append(rec.MainMS, ms)
	}
	lat, errs := readRound(&s.env, s.d, readsPerOp)
	rec.ReadMS = append(rec.ReadMS, lat...)
	attempted += readsPerOp
	failed += len(errs)
	for _, e := range errs {
		rec.failure(e)
	}
	return attempted, failed
}

// timed is the --trace 0 run: set-up repeated setupLaunches times, then
// a closed loop for the run's seconds on the last server, extended
// until the main operation has enough samples for a median and the
// reads enough for a p90 (kept in the run record).
func timed(cfg runConfig, rec *record) (result, error) {
	begin := time.Now()
	rng := rand.New(rand.NewSource(cfg.seed))
	var s *served
	for i := 0; i < setupLaunches; i++ {
		if s != nil {
			s.stop()
		}
		var setup float64
		var err error
		if s, setup, err = start(cfg, rng, nil, rec); err != nil {
			return result{}, err
		}
		rec.SetupS = append(rec.SetupS, setup)
	}
	defer s.stop()

	before, err := s.srv.stats(s.readConn)
	if err != nil {
		return result{}, err
	}
	cpu0, err := s.srv.cpuMS()
	if err != nil {
		return result{}, err
	}
	res := result{Metrics: map[string]metric{}, Attempted: rec.SetupAttempted, Failed: rec.SetupFailed}
	ops := 0
	loopStart := time.Now()
	measure := time.Duration(cfg.seconds) * time.Second
	for time.Since(loopStart) < measure || len(rec.MainMS) < 2*minBeyond || len(rec.ReadMS) < 10*minBeyond {
		if time.Since(begin) > hardStop {
			return result{}, fmt.Errorf("run exceeded %s with %d main and %d read samples", hardStop, len(rec.MainMS), len(rec.ReadMS))
		}
		if res.Failed > 50 {
			break
		}
		a, f := cycle(s, cfg.w.readsPerOp, rec)
		res.Attempted += a
		res.Failed += f
		ops++
	}
	cpu1, err := s.srv.cpuMS()
	if err != nil {
		return result{}, err
	}
	rss, err := s.srv.peakRSSMB()
	if err != nil {
		return result{}, err
	}
	after, err := s.srv.stats(s.readConn)
	if err != nil {
		return result{}, err
	}
	rec.StatsBefore, rec.StatsAfter = &before, &after
	rec.Counters = deriveCounters(before.Phases, after.Phases, before.Store, after.Store, ops).asMap()
	rec.FailedKinds = failedKinds(before.Requests, after.Requests)
	rec.Main, rec.Read = summarize(rec.MainMS), summarize(rec.ReadMS)

	p50, ok1 := percentile(rec.MainMS, 0.5)
	r50, ok2 := percentile(rec.ReadMS, 0.5)
	res.Correct = res.Failed == 0 && ok1 && ok2
	if !res.Correct {
		rec.Notes = append(rec.Notes, "failed operations or too few samples for a reported percentile")
	}
	values := map[string]float64{
		"setup_s":       median(rec.SetupS),
		"p50_ms":        p50,
		"read_p50_ms":   r50,
		"peak_rss_mb":   rss,
		"cpu_ms_per_op": (cpu1 - cpu0) / float64(ops),
	}
	for _, m := range endToEndMetrics {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}
	return res, nil
}

// endToEndMetrics lists the metrics a timed run reports.
var endToEndMetrics = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
}

// failedKinds is the per-kind count of non-ok requests between two
// /statsz scrapes.
func failedKinds(b, a server.RequestStats) map[string]int64 {
	kinds := map[string]int64{
		"partial":       a.Partial - b.Partial,
		"bad_request":   a.BadRequest - b.BadRequest,
		"program_error": a.ProgramError - b.ProgramError,
		"saturated":     a.Saturated - b.Saturated,
		"breaker_open":  a.BreakerOpen - b.BreakerOpen,
		"deadline":      a.Deadline - b.Deadline,
		"exhausted":     a.Exhausted - b.Exhausted,
		"internal":      a.Internal - b.Internal,
		"draining":      a.Draining - b.Draining,
	}
	for k, v := range kinds {
		if v == 0 {
			delete(kinds, k)
		}
	}
	return kinds
}
