package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"thinslice/internal/session"
)

// oracle holds the committed digests of each base program's answers:
// per seed, the digest of its thin slice's line set; for checked
// programs, the digest of the full checker suite's findings. Variants
// and edits keep every line these answers name, so every response of
// every run must match them whatever the workload seed.
type oracle map[string]oracleEntry

type oracleEntry struct {
	Slices   map[string]string `json:"slices"`
	Findings string            `json:"findings,omitempty"`
}

//go:embed oracle.json
var oracleJSON []byte

func loadOracle() (oracle, error) {
	var o oracle
	if err := json.Unmarshal(oracleJSON, &o); err != nil {
		return nil, fmt.Errorf("decoding oracle.json: %w", err)
	}
	return o, nil
}

// oraclePrograms lists every base program a workload sends; checked
// marks those a workload sends to /check.
var oraclePrograms = []struct {
	name    string
	scale   int
	checked bool
}{
	{"javac", 2, false},
	{"javac", 10, false},
	{"javac", 16, false},
	{"nanoxml", 4, true},
}

// writeOracle recomputes the digests in-process from the base programs
// and writes them to path. Run it only when a change to the analysis is
// meant to change answers, and say so where the change is recorded.
func writeOracle(path string) error {
	o := oracle{}
	for _, op := range oraclePrograms {
		p := loadProgram(op.name, op.scale)
		sess := session.Open(p.sources())
		answers, err := sliceAnswers(sess, p)
		if err != nil {
			return fmt.Errorf("%s: %w", p.key, err)
		}
		e := oracleEntry{Slices: map[string]string{}}
		for _, sr := range answers {
			e.Slices[sr.Seed] = digest(sr.Lines)
		}
		if op.checked {
			fs, err := checkAnswers(sess)
			if err != nil {
				return fmt.Errorf("%s: %w", p.key, err)
			}
			e.Findings = digest(findingKeys(fs))
		}
		o[p.key] = e
	}
	b, err := json.MarshalIndent(o, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
