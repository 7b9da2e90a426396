package ir_test

import (
	"testing"

	"thinslice/internal/ir"
	"thinslice/internal/lang/loader"
	"thinslice/internal/papercases"
)

// paperSources enumerates the paper's running examples.
func paperSources() map[string]map[string]string {
	return map[string]map[string]string{
		"firstnames": {papercases.FirstNamesFile: papercases.FirstNames},
		"toy":        {papercases.ToyFile: papercases.Toy},
		"filebug":    {papercases.FileBugFile: papercases.FileBug},
		"toughcast":  {papercases.ToughCastFile: papercases.ToughCast},
	}
}

// lowerJobNames returns every lowered method's qualified name in
// declaration order.
func lowerJobNames(p *ir.Program) []string {
	names := make([]string, 0, len(p.Methods))
	for _, m := range p.Methods {
		names = append(names, m.Name())
	}
	return names
}

// TestLowerUnitsReassemblesByteIdentical pins the unit contract
// directly (the session tests only exercise it end to end): encoding
// every method of a cold lower as a unit payload and reassembling the
// program entirely from those payloads reproduces the cold listing
// byte for byte, with every method counted as reused.
func TestLowerUnitsReassemblesByteIdentical(t *testing.T) {
	for name, srcs := range paperSources() {
		t.Run(name, func(t *testing.T) {
			info, err := loader.Load(srcs)
			if err != nil {
				t.Fatal(err)
			}
			cold := ir.Lower(info)
			want := ir.Sprint(cold)

			if len(cold.Diags) > 0 {
				t.Fatalf("fixture has diagnostics: %v", cold.Diags)
			}
			reuse := make(map[string][]byte, len(cold.Methods))
			for _, m := range cold.Methods {
				reuse[m.Name()] = ir.EncodeUnit(m)
			}
			got, st, err := ir.LowerUnits(info, reuse)
			if err != nil {
				t.Fatal(err)
			}
			if st.Reused != len(reuse) || st.Lowered != len(cold.Methods)-len(reuse) {
				t.Fatalf("split %+v, want %d reused", st, len(reuse))
			}
			if g := ir.Sprint(got); g != want {
				t.Fatalf("reassembled program differs\ncold:\n%s\nunits:\n%s", want, g)
			}
		})
	}
}

// TestLowerUnitsFreshPayloadsMatchColdUnits pins the frontier
// re-derive path: a LowerUnits call that clones some units and lowers
// the rest fresh produces, for every unit, exactly the payload a cold
// lower encodes — so a session publishing freshly lowered units beside
// cached ones can never tell them apart. Reuse names that match no
// lowering job must be ignored.
func TestLowerUnitsFreshPayloadsMatchColdUnits(t *testing.T) {
	srcs := map[string]string{papercases.FirstNamesFile: papercases.FirstNames}
	info, err := loader.Load(srcs)
	if err != nil {
		t.Fatal(err)
	}
	cold := ir.Lower(info)
	if len(cold.Diags) > 0 {
		t.Fatalf("fixture has diagnostics: %v", cold.Diags)
	}
	if len(cold.Methods) < 2 {
		t.Fatalf("fixture too small: %v", lowerJobNames(cold))
	}
	want := make(map[string][]byte, len(cold.Methods))
	for _, m := range cold.Methods {
		want[m.Name()] = ir.EncodeUnit(m)
	}
	// Reuse the first half, lower the second half fresh, plus a name
	// from nowhere.
	mid := len(cold.Methods) / 2
	reuse := map[string][]byte{"NoSuch.unit": want[cold.Methods[0].Name()]}
	for _, m := range cold.Methods[:mid] {
		reuse[m.Name()] = want[m.Name()]
	}
	got, st, err := ir.LowerUnits(info, reuse)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reused != mid || st.Lowered != len(cold.Methods)-mid {
		t.Fatalf("split %+v, want %d reused and %d lowered", st, mid, len(cold.Methods)-mid)
	}
	if len(got.Methods) != len(want) {
		t.Fatalf("got %d methods, want %d", len(got.Methods), len(want))
	}
	for _, m := range got.Methods {
		p := ir.EncodeUnit(m)
		if w, ok := want[m.Name()]; !ok {
			t.Errorf("unexpected unit %s", m.Name())
		} else if string(p) != string(w) {
			t.Errorf("unit %s payload differs from cold encoding", m.Name())
		}
		// Round-trip: every payload decodes against the same info.
		if _, err := ir.DecodeUnit(p, info); err != nil {
			t.Errorf("unit %s does not decode: %v", m.Name(), err)
		}
	}
}
