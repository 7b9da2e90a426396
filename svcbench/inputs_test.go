package main

import (
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// fingerprintSources hashes a whole source set.
func fingerprintSources(srcs map[string]string) [32]byte {
	names := make([]string, 0, len(srcs))
	for n := range srcs {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	for _, n := range names {
		h.Write([]byte(n + "\x00" + srcs[n] + "\x00"))
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// TestEditorNeverRepeatsContentAndKeepsSeedLines drives long edit
// streams from several seeds: no revision may repeat an earlier
// revision's content (or the server's identical-content fast path would
// answer it), and every seed line must keep its number and text.
func TestEditorNeverRepeatsContentAndKeepsSeedLines(t *testing.T) {
	p := loadProgram("javac", 2)
	base := strings.Split(p.base, "\n")
	for _, seed := range []int64{1, 2, 3} {
		ed := newEditor(p, rand.New(rand.NewSource(seed)))
		if len(ed.sites) == 0 {
			t.Fatal("no literal edit sites in the program")
		}
		seen := map[[32]byte]int{fingerprintSources(p.sources()): 0}
		shapes := map[string]int{}
		for rev := 1; rev <= 300; rev++ {
			edit, srcs, shape := ed.next()
			shapes[shape]++
			if len(edit.Update) == 0 {
				t.Fatalf("seed %d rev %d: empty edit", seed, rev)
			}
			fp := fingerprintSources(srcs)
			if prev, ok := seen[fp]; ok {
				t.Fatalf("seed %d: revision %d repeats revision %d", seed, rev, prev)
			}
			seen[fp] = rev
			lines := strings.Split(srcs[p.file], "\n")
			if len(lines) != len(base) {
				t.Fatalf("seed %d rev %d: %d lines, base has %d", seed, rev, len(lines), len(base))
			}
			for _, s := range p.seeds {
				n, _ := strconv.Atoi(s[strings.LastIndex(s, ":")+1:])
				if lines[n-1] != base[n-1] {
					t.Fatalf("seed %d rev %d: seed line %s changed to %q", seed, rev, s, lines[n-1])
				}
			}
			if extras := len(srcs) - 1; extras > 1 {
				t.Fatalf("seed %d rev %d: %d extra files", seed, rev, extras)
			}
		}
		if shapes["literal"] == 0 || shapes["add_class"] == 0 {
			t.Errorf("seed %d: shapes %v, want both", seed, shapes)
		}
	}
}

// TestEditorIsSeeded checks the same seed gives the same edit stream.
func TestEditorIsSeeded(t *testing.T) {
	p := loadProgram("javac", 2)
	a := newEditor(p, rand.New(rand.NewSource(7)))
	b := newEditor(p, rand.New(rand.NewSource(7)))
	for i := 0; i < 50; i++ {
		_, sa, _ := a.next()
		_, sb, _ := b.next()
		if fingerprintSources(sa) != fingerprintSources(sb) {
			t.Fatalf("edit %d differs under the same seed", i)
		}
	}
}

// TestVariantKeepsLines checks a variant only appends after the last
// line: every base line keeps its number and text.
func TestVariantKeepsLines(t *testing.T) {
	for _, op := range oraclePrograms {
		p := loadProgram(op.name, op.scale)
		base := strings.Split(p.base, "\n")
		v := p.variant(variantTag(rand.New(rand.NewSource(1)), 1))[p.file]
		got := strings.Split(v, "\n")
		if len(got) != len(base)+1 {
			t.Fatalf("%s: variant has %d lines, base %d", p.key, len(got), len(base))
		}
		for i := range base[:len(base)-1] {
			if got[i] != base[i] {
				t.Fatalf("%s: line %d changed", p.key, i+1)
			}
		}
		if !strings.HasPrefix(got[len(base)-1], "// variant ") {
			t.Fatalf("%s: variant line is %q", p.key, got[len(base)-1])
		}
	}
}

// TestOracleIsCurrent recomputes the digests in-process. It fails when
// a change alters what the analysis answers on the benchmark programs;
// such a change must regenerate oracle.json with --write-oracle and say
// why.
func TestOracleIsCurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every benchmark program")
	}
	path := t.TempDir() + "/oracle.json"
	if err := writeOracle(path); err != nil {
		t.Fatal(err)
	}
	want, err := loadOracle()
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got oracle
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	for key, e := range want {
		g := got[key]
		if g.Findings != e.Findings {
			t.Errorf("%s: findings digest changed", key)
		}
		for seed, d := range e.Slices {
			if g.Slices[seed] != d {
				t.Errorf("%s: slice digest of %s changed", key, seed)
			}
		}
	}
}
