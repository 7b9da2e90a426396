package main

import (
	"encoding/json"
	"os"
	"testing"

	"thinslice/internal/session"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestBenchmarkFileMatches checks BENCHMARK.json names exactly the
// workloads and metrics this program runs and reports, with its units.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
	e2e := map[string]string{}
	for _, m := range endToEndMetrics {
		e2e[m.name] = m.unit
	}
	if len(bf.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(bf.EndToEnd), len(e2e))
	}
	for _, m := range bf.EndToEnd {
		if u, ok := e2e[m.Name]; !ok || u != m.Unit {
			t.Errorf("end-to-end metric %s %s: benchmark reports unit %q", m.Name, m.Unit, u)
		}
	}
	layer := map[string]string{}
	for _, m := range layerMetrics {
		layer[m.name] = m.unit
	}
	if len(bf.PerLayer) != len(layer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(bf.PerLayer), len(layer))
	}
	for _, m := range bf.PerLayer {
		if u, ok := layer[m.Name]; !ok || u != m.Unit {
			t.Errorf("per-layer metric %s %s: benchmark reports unit %q", m.Name, m.Unit, u)
		}
	}
}

// TestCountersDerivation pins the session.* definitions on a small
// hand-made delta.
func TestCountersDerivation(t *testing.T) {
	before := session.Stats{SDGs: 1, PointsTos: 1, Parses: 5}
	after := session.Stats{SDGs: 5, DeltaSDGs: 2, PointsTos: 3, DeltaSolves: 4,
		UnitLowers: 3, UnitReuses: 9, Dataflows: 5, Parses: 9}
	c := deriveCounters(before, after,
		session.StoreStats{Hits: 5, Misses: 5, Evictions: 1},
		session.StoreStats{Hits: 35, Misses: 15, Evictions: 9}, 2)
	want := counters{
		SDGBuildsPerOp: 3, PtsBuildsPerOp: 3, EvictionsPerOp: 4,
		StoreHitRatio: 0.75, DeltaRatio: 0.5, UnitReuseRatio: 0.75, DataflowsPerOp: 2.5,
	}
	if c != want {
		t.Errorf("counters = %+v, want %+v", c, want)
	}
}
