package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"thinslice/internal/bench"
	"thinslice/internal/inspect"
	"thinslice/internal/server"
)

// program is one generated base program the workloads send, with the
// seeds every query asks about and the generator's own expectations.
type program struct {
	key   string // oracle key, "<bench>@<scale>"
	file  string // the program's single source file
	base  string // base source text
	seeds []string
	// desired maps a seed to the lines the generator says its thin
	// slice must contain: tasks with no control dependences that need
	// no aliasing explanation.
	desired map[string][]string
}

// loadProgram generates bench program name at scale.
func loadProgram(name string, scale int) *program {
	b := bench.Generate(name, scale)
	p := &program{
		key:     fmt.Sprintf("%s@%d", name, scale),
		file:    b.File,
		base:    b.Src(),
		desired: map[string][]string{},
	}
	for _, s := range b.QuerySeeds() {
		p.seeds = append(p.seeds, s.String())
	}
	for _, tasks := range [][]inspect.Task{b.Debug, b.Casts} {
		for _, t := range tasks {
			if t.ControlDeps != 0 || t.ExplainAliasing {
				continue
			}
			seed := fmt.Sprintf("%s:%d", t.SeedFile, t.SeedLine)
			for _, l := range t.Desired {
				p.desired[seed] = append(p.desired[seed], fmt.Sprintf("%s:%d", l.File, l.Line))
			}
		}
	}
	return p
}

// sources returns the base program as a source set.
func (p *program) sources() map[string]string {
	return map[string]string{p.file: p.base}
}

// variant returns the program with a trailing comment carrying tag
// appended after its last line: a new content hash with every existing
// line, and so every slice, unchanged.
func (p *program) variant(tag string) map[string]string {
	return map[string]string{p.file: p.base + "// variant " + tag + "\n"}
}

// variantTag draws a fresh variant tag from the workload's generator.
func variantTag(rng *rand.Rand, op int) string {
	return fmt.Sprintf("%d-%016x", op, rng.Uint64())
}

// batchRequest is the /batch body over all of p's seeds.
func (p *program) batchRequest(srcs map[string]string) server.Request {
	return server.Request{Sources: srcs, Seeds: p.seeds}
}

// digest hashes a set of strings independently of their order.
func digest(items []string) string {
	s := append([]string(nil), items...)
	sort.Strings(s)
	h := sha256.Sum256([]byte(strings.Join(s, "\n")))
	return hex.EncodeToString(h[:])
}

// findingKeys renders findings as digestable strings.
func findingKeys(fs []server.Finding) []string {
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		out = append(out, fmt.Sprintf("%s\t%s:%d\t%s", f.Checker, f.File, f.Line, f.Message))
	}
	return out
}

// checkSlices verifies one answer's slices against the committed
// digests and the generator's desired lines.
func (p *program) checkSlices(o oracle, slices []server.SliceResult) error {
	want, ok := o[p.key]
	if !ok {
		return fmt.Errorf("no oracle for %s", p.key)
	}
	if len(slices) != len(p.seeds) {
		return fmt.Errorf("%s: %d slices for %d seeds", p.key, len(slices), len(p.seeds))
	}
	for i, sl := range slices {
		seed := p.seeds[i]
		if sl.Seed != seed {
			return fmt.Errorf("%s: slice %d is for %s, want %s", p.key, i, sl.Seed, seed)
		}
		if d := digest(sl.Lines); d != want.Slices[seed] {
			return fmt.Errorf("%s: slice of %s (%d lines) does not match the oracle", p.key, seed, len(sl.Lines))
		}
		have := make(map[string]bool, len(sl.Lines))
		for _, l := range sl.Lines {
			have[l] = true
		}
		for _, l := range p.desired[seed] {
			if !have[l] {
				return fmt.Errorf("%s: thin slice of %s misses desired line %s", p.key, seed, l)
			}
		}
	}
	return nil
}

// checkFindings verifies one /check answer's findings.
func (p *program) checkFindings(o oracle, fs []server.Finding) error {
	want, ok := o[p.key]
	if !ok || want.Findings == "" {
		return fmt.Errorf("no findings oracle for %s", p.key)
	}
	if digest(findingKeys(fs)) != want.Findings {
		return fmt.Errorf("%s: %d findings do not match the oracle", p.key, len(fs))
	}
	return nil
}

// editor generates the watch workload's edit stream over one
// single-file program. Every revision's source set is new content,
// every edit keeps the file's line count and every seed line, so every
// revision has the base program's slices.
type editor struct {
	p     *program
	rng   *rand.Rand
	lines []string // current lines of p.file
	sites []int    // indexes of lines holding an editable int literal
	rev   int
	// extra and extraSrc are the unreferenced class file, "" when none.
	extra, extraSrc string
}

// literalSite matches the in-place literal edit sites: one int
// assignment alone on its line inside a constructor.
var literalSite = regexp.MustCompile(`^(\s+this\.extra\d+ = )\d+;$`)

func newEditor(p *program, rng *rand.Rand) *editor {
	e := &editor{p: p, rng: rng, lines: strings.Split(p.base, "\n")}
	for i, l := range e.lines {
		if literalSite.MatchString(l) {
			e.sites = append(e.sites, i)
		}
	}
	return e
}

// next applies one seeded edit and returns it with the resulting
// source set. Shapes, chosen with equal odds:
//   - literal: one constructor's int literal becomes a value no earlier
//     revision held (one method body changes, lines stay put);
//   - add_class: a new file with an unreferenced class replaces the
//     previous such file, so the program does not grow without bound.
func (e *editor) next() (server.WatchEdit, map[string]string, string) {
	e.rev++
	var edit server.WatchEdit
	shape := "literal"
	if len(e.sites) == 0 || e.rng.Intn(2) == 1 {
		shape = "add_class"
	}
	switch shape {
	case "literal":
		i := e.sites[e.rng.Intn(len(e.sites))]
		m := literalSite.FindStringSubmatch(e.lines[i])
		e.lines[i] = m[1] + strconv.Itoa(1_000_000+e.rev) + ";"
		edit.Update = map[string]string{e.p.file: strings.Join(e.lines, "\n")}
	case "add_class":
		name := fmt.Sprintf("extra%d.mj", e.rev)
		src := fmt.Sprintf("class Extra%d {\n    int v;\n    int get() { return %d; }\n}\n", e.rev, e.rev)
		edit.Update = map[string]string{name: src}
		if e.extra != "" {
			edit.Remove = []string{e.extra}
		}
		e.extra, e.extraSrc = name, src
	}
	return edit, e.sources(), shape
}

// sources returns the current revision's source set.
func (e *editor) sources() map[string]string {
	srcs := map[string]string{e.p.file: strings.Join(e.lines, "\n")}
	if e.extra != "" {
		srcs[e.extra] = e.extraSrc
	}
	return srcs
}
