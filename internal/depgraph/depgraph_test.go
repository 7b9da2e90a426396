package depgraph_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"thinslice/internal/depgraph"
	"thinslice/internal/lang/loader"
	"thinslice/internal/lang/types"
)

const progA = `
class Util {
  int twice(int x) { return x + x; }
  int thrice(int x) { return x + this.twice(x); }
}
class Main {
  static void main() {
    Util u = new Util();
    int r = u.thrice(3);
  }
}
`

func check(t *testing.T, srcs map[string]string) *types.Info {
	t.Helper()
	info, err := loader.LoadBare(srcs)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return info
}

func build(t *testing.T, srcs map[string]string) *depgraph.Graph {
	t.Helper()
	return depgraph.Build(check(t, srcs))
}

func unitKeys(g *depgraph.Graph) map[string]string {
	m := make(map[string]string, len(g.Units))
	for _, u := range g.Units {
		m[u.QName] = u.Key
	}
	return m
}

func TestBuildDeterministic(t *testing.T) {
	srcs := map[string]string{"a.tj": progA}
	g1, g2 := build(t, srcs), build(t, srcs)
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Fatalf("fingerprints differ across identical builds")
	}
	b1, err := depgraph.EncodeGraph(g1)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	b2, _ := depgraph.EncodeGraph(g2)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("encoded bytes differ across identical builds")
	}
}

func TestUnitsAndRefs(t *testing.T) {
	g := build(t, map[string]string{"a.tj": progA})
	want := []string{"Util.<init>", "Util.twice", "Util.thrice", "Main.main"}
	var got []string
	for _, u := range g.Units {
		got = append(got, u.QName)
	}
	for _, q := range want {
		found := false
		for _, h := range got {
			if h == q {
				found = true
			}
		}
		if !found {
			t.Fatalf("missing unit %q in %v", q, got)
		}
	}
	thrice, ok := g.Unit("Util.thrice")
	if !ok {
		t.Fatal("no Util.thrice unit")
	}
	if !reflect.DeepEqual(thrice.Refs, []string{"Util.twice"}) {
		t.Fatalf("Util.thrice refs = %v, want [Util.twice]", thrice.Refs)
	}
	main, _ := g.Unit("Main.main")
	wantRefs := []string{"Util.<init>", "Util.thrice"}
	if !reflect.DeepEqual(main.Refs, wantRefs) {
		t.Fatalf("Main.main refs = %v, want %v", main.Refs, wantRefs)
	}
	ctor, ok := g.Unit("Util.<init>")
	if !ok || !ctor.Synthesized {
		t.Fatalf("Util.<init> should be a synthesized unit, got %+v ok=%v", ctor, ok)
	}
}

// changedKeys lists, in old's unit order, the units present in both
// revisions whose keys differ: the units an edit forces to re-lower.
func changedKeys(old, new *depgraph.Graph) []string {
	var out []string
	for _, u := range old.Units {
		if nu, ok := new.Unit(u.QName); ok && nu.Key != u.Key {
			out = append(out, u.QName)
		}
	}
	return out
}

// sameUnitSet fails unless both revisions declare the same units.
func sameUnitSet(t *testing.T, old, new *depgraph.Graph) {
	t.Helper()
	if len(old.Units) != len(new.Units) {
		t.Fatalf("unit count changed: %d -> %d", len(old.Units), len(new.Units))
	}
	for _, u := range old.Units {
		if _, ok := new.Unit(u.QName); !ok {
			t.Fatalf("unit %s missing from the new revision", u.QName)
		}
	}
}

func TestDiffBodyEditIsLocal(t *testing.T) {
	old := build(t, map[string]string{"a.tj": progA})
	// Change only twice's body, preserving all positions outside it.
	edited := strings.Replace(progA, "return x + x;", "return x * 2;", 1)
	if edited == progA {
		t.Fatal("edit did not apply")
	}
	new := build(t, map[string]string{"a.tj": edited})
	sameUnitSet(t, old, new)
	if got := changedKeys(old, new); !reflect.DeepEqual(got, []string{"Util.twice"}) {
		t.Fatalf("body edit changed the keys of %v, want exactly [Util.twice]", got)
	}
}

func TestDiffSignatureEditInvalidatesReferencers(t *testing.T) {
	old := build(t, map[string]string{"a.tj": progA})
	// Rename twice → twicex (same length, positions preserved) and fix
	// its one call site (also same length).
	edited := strings.Replace(progA, "int twice(", "int twicex(", 1)
	edited = strings.Replace(edited, "this.twice(x)", "this.twicex(x)", 1)
	// Keep source length drift from shifting later lines: the two edits
	// are on separate lines, so only those lines' columns shift.
	new := build(t, map[string]string{"a.tj": edited})
	if _, ok := new.Unit("Util.twicex"); !ok {
		t.Fatal("renamed unit Util.twicex missing from the new revision")
	}
	if _, ok := new.Unit("Util.twice"); ok {
		t.Fatal("old unit Util.twice survived the rename")
	}
	if _, ok := old.Unit("Util.twicex"); ok {
		t.Fatal("Util.twicex present before the rename")
	}
	// Every unit whose key depends on class Util must change: the deep
	// class fingerprint shifted. Util.thrice calls it; Main.main
	// references Util.
	for _, q := range []string{"Util.thrice", "Main.main", "Util.<init>"} {
		ou, _ := old.Unit(q)
		nu, ok := new.Unit(q)
		if !ok {
			t.Fatalf("unit %s missing from the new revision", q)
		}
		if ou.Key == nu.Key {
			t.Errorf("signature change should invalidate %s; key unchanged", q)
		}
	}
}

func TestDiffAcrossFiles(t *testing.T) {
	multi := map[string]string{
		"util.tj": "class Util {\n  int twice(int x) { return x + x; }\n}\n",
		"main.tj": "class Main {\n  static void main() {\n    Util u = new Util();\n    int r = u.twice(2);\n  }\n}\n",
		"far.tj":  "class Far {\n  int solo(int y) { return y - 1; }\n}\n",
	}
	old := build(t, multi)
	edited := map[string]string{}
	for k, v := range multi {
		edited[k] = v
	}
	edited["util.tj"] = strings.Replace(multi["util.tj"], "x + x", "x * 2", 1)
	new := build(t, edited)
	sameUnitSet(t, old, new)
	if got := changedKeys(old, new); !reflect.DeepEqual(got, []string{"Util.twice"}) {
		t.Fatalf("cross-file body edit changed the keys of %v, want [Util.twice] only", got)
	}
	if _, ok := new.Unit("Far.solo"); !ok {
		t.Fatal("Far.solo missing")
	}
	if unitKeys(old)["Far.solo"] != unitKeys(new)["Far.solo"] {
		t.Fatal("unrelated file's unit key changed")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	g := build(t, map[string]string{"a.tj": progA})
	data, err := depgraph.EncodeGraph(g)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := depgraph.DecodeGraph(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if back.Fingerprint() != g.Fingerprint() {
		t.Fatal("round-trip fingerprint mismatch")
	}
	data2, _ := depgraph.EncodeGraph(back)
	if !bytes.Equal(data, data2) {
		t.Fatal("re-encode not byte-identical")
	}
	// Corrupt every truncation length; decode must fail cleanly, never
	// panic.
	for n := 0; n < len(data); n++ {
		if _, err := depgraph.DecodeGraph(data[:n]); err == nil && n < len(data) {
			t.Fatalf("decode of %d-byte truncation succeeded", n)
		}
	}
}
