package sdg_test

import (
	"context"
	"math"
	"testing"
	"time"

	"thinslice/internal/analyzer"
	"thinslice/internal/budget"
	"thinslice/internal/papercases"
	"thinslice/internal/randprog"
	"thinslice/internal/sdg"
)

// fingerprints lowers and points-to-analyzes srcs once, then builds the
// dependence graph down both construction paths: the metered
// single-pass build (under a step cap it never reaches) and the
// two-pass direct-CSR build (nil budget).
func fingerprints(t *testing.T, srcs map[string]string) (metered, twoPass string) {
	t.Helper()
	a, err := analyzer.Analyze(srcs)
	if err != nil {
		t.Fatal(err)
	}
	capped := budget.New(context.Background(), budget.WithPhaseSteps(budget.PhaseSDG, math.MaxInt64))
	single, err := sdg.BuildBudget(a.Prog, a.Pts, capped)
	if err != nil {
		t.Fatal(err)
	}
	if single.Truncated {
		t.Fatal("step cap truncated the metered build")
	}
	two, err := sdg.BuildBudget(a.Prog, a.Pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Both builds must also be structurally well-formed — equal
	// fingerprints on malformed graphs would prove nothing.
	if errs := sdg.VerifyGraph(single); len(errs) > 0 {
		t.Fatalf("metered single-pass graph fails VerifyGraph: %v", errs[0])
	}
	if errs := sdg.VerifyGraph(two); len(errs) > 0 {
		t.Fatalf("two-pass graph fails VerifyGraph: %v", errs[0])
	}
	return single.Fingerprint(), two.Fingerprint()
}

// TestParallelBuildMatchesSequentialPapercases pins the contract
// between the two construction paths on the paper's running examples:
// the metered single-pass build and the two-pass build yield graphs
// with identical per-node dependence lists, caller-node lists, and
// edge counts.
func TestParallelBuildMatchesSequentialPapercases(t *testing.T) {
	cases := map[string]map[string]string{
		"firstnames": {papercases.FirstNamesFile: papercases.FirstNames},
		"toy":        {papercases.ToyFile: papercases.Toy},
		"filebug":    {papercases.FileBugFile: papercases.FileBug},
		"toughcast":  {papercases.ToughCastFile: papercases.ToughCast},
	}
	for name, srcs := range cases {
		t.Run(name, func(t *testing.T) {
			metered, twoPass := fingerprints(t, srcs)
			if metered != twoPass {
				t.Fatalf("two-pass SDG fingerprint %s != metered single-pass %s", twoPass, metered)
			}
		})
	}
}

// TestParallelBuildMatchesSequentialRandprog sweeps the randomized
// corpus: 200 generated programs, each built down both construction
// paths and compared by fingerprint.
func TestParallelBuildMatchesSequentialRandprog(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 20
	}
	for seed := 0; seed < n; seed++ {
		srcs := randprog.Generate(int64(seed), randprog.DefaultConfig)
		metered, twoPass := fingerprints(t, srcs)
		if metered != twoPass {
			t.Fatalf("seed %d: two-pass SDG diverged from metered single-pass", seed)
		}
	}
}

// TestParallelBuildHonorsCancellation covers the server's path: a
// deadline-only budget (no step cap) selects the two-pass build, and a
// pre-canceled one aborts it with a typed cancellation error instead
// of returning a graph.
func TestParallelBuildHonorsCancellation(t *testing.T) {
	a, err := analyzer.Analyze(map[string]string{papercases.FirstNamesFile: papercases.FirstNames})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	b := budget.New(ctx, budget.WithTimeout(time.Minute))
	cancel()
	g, err := sdg.BuildBudget(a.Prog, a.Pts, b)
	if !budget.IsCanceled(err) {
		t.Fatalf("build with canceled budget: err = %v, want cancellation", err)
	}
	if g != nil {
		t.Fatal("canceled build returned a graph")
	}
}
