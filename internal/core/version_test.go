package core

import (
	"strings"
	"testing"
)

// TestPipelineVersionStable: the fingerprint is deterministic across
// calls and carries the expected shape.
func TestPipelineVersionStable(t *testing.T) {
	v1, v2 := PipelineVersion(), PipelineVersion()
	if v1 != v2 {
		t.Fatalf("PipelineVersion not deterministic: %q vs %q", v1, v2)
	}
	if !strings.HasPrefix(v1, "epre-") || len(v1) != len("epre-")+16 {
		t.Fatalf("unexpected version shape: %q", v1)
	}
}

// TestPipelineVersionSensitivity: the fingerprint must move when a pass
// is renamed, removed, or — crucially for the result caches — when its
// preservation contract changes without any other edit.
func TestPipelineVersionSensitivity(t *testing.T) {
	base := pipelineVersion(AllPasses(), GVNAWZ, PREDrechsler)

	renamed := AllPasses()
	renamed[0].Name = renamed[0].Name + "-v2"
	if pipelineVersion(renamed, GVNAWZ, PREDrechsler) == base {
		t.Error("renaming a pass did not change the version")
	}

	removed := AllPasses()[1:]
	if pipelineVersion(removed, GVNAWZ, PREDrechsler) == base {
		t.Error("removing a pass did not change the version")
	}

	// Flip the Preserves contract of the first pass that has one, and
	// grant one to the first pass that has none.
	contract := AllPasses()
	flipped := false
	for i := range contract {
		if len(contract[i].Preserves) > 0 {
			contract[i].Preserves = nil
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no pass declares a Preserves contract")
	}
	if pipelineVersion(contract, GVNAWZ, PREDrechsler) == base {
		t.Error("clearing a Preserves contract did not change the version")
	}

	granted := AllPasses()
	for i := range granted {
		if len(granted[i].Preserves) == 0 {
			granted[i].Preserves = []string{PreservesCFG}
			break
		}
	}
	if pipelineVersion(granted, GVNAWZ, PREDrechsler) == base {
		t.Error("granting a Preserves contract did not change the version")
	}
}

// TestPipelineVersionGVNBackend: selecting a different GVN backend must
// move the fingerprint, so a content-addressed result cache (the serve
// cache folds the version into its keys) can never return a stale
// cross-backend result.  The zero value must fingerprint exactly as the
// explicit default.
func TestPipelineVersionGVNBackend(t *testing.T) {
	awz := PipelineVersionFor(GVNAWZ, PREDrechsler)
	precise := PipelineVersionFor(GVNPrecise, PREDrechsler)
	if awz == precise {
		t.Fatalf("AWZ and precise backends share a pipeline version: %q", awz)
	}
	if def := PipelineVersionFor("", ""); def != awz {
		t.Errorf("zero-value backend version %q differs from explicit awz %q", def, awz)
	}
	if PipelineVersion() != awz {
		t.Errorf("PipelineVersion() does not default to the AWZ backend")
	}
	for _, b := range GVNBackends {
		v := PipelineVersionFor(b, PREDrechsler)
		if !strings.HasPrefix(v, "epre-") || len(v) != len("epre-")+16 {
			t.Errorf("backend %s: unexpected version shape %q", b, v)
		}
	}
}

// TestPassNamesWithBackend: the precise backend swaps only the GVN slot
// of the reassociation levels; every other level is identical.
func TestPassNamesWithBackend(t *testing.T) {
	for _, l := range append([]Level{LevelNone}, Levels...) {
		a := PassNamesWith(l, GVNAWZ, PREDrechsler)
		p := PassNamesWith(l, GVNPrecise, PREDrechsler)
		if len(a) != len(p) {
			t.Fatalf("%s: pass count differs across backends: %v vs %v", l, a, p)
		}
		diff := 0
		for i := range a {
			if a[i] != p[i] {
				diff++
				if a[i] != "gvn" || p[i] != "gvn-precise" {
					t.Errorf("%s: unexpected substitution %s -> %s", l, a[i], p[i])
				}
			}
		}
		hasGVN := l == LevelReassoc || l == LevelDist
		if hasGVN && diff != 1 || !hasGVN && diff != 0 {
			t.Errorf("%s: %d slots differ across backends (%v vs %v)", l, diff, a, p)
		}
	}
}

// TestPipelineVersionPREBackend mirrors the GVN-backend test for the
// redundancy-elimination slot: each PRE backend must fingerprint
// differently (pairwise, and across GVN backends), and the zero value
// must fingerprint exactly as the explicit default.
func TestPipelineVersionPREBackend(t *testing.T) {
	seen := map[string]string{}
	for _, g := range GVNBackends {
		for _, p := range PREBackends {
			v := PipelineVersionFor(g, p)
			if !strings.HasPrefix(v, "epre-") || len(v) != len("epre-")+16 {
				t.Errorf("%s/%s: unexpected version shape %q", g, p, v)
			}
			if prev, dup := seen[v]; dup {
				t.Errorf("backend pairs %s and %s/%s share version %q", prev, g, p, v)
			}
			seen[v] = string(g) + "/" + string(p)
		}
	}
	if len(seen) != 4 {
		t.Errorf("got %d distinct versions over the gvn×pre product, want 2×2 = 4", len(seen))
	}
	def := PipelineVersionFor(GVNAWZ, PREDrechsler)
	if v := PipelineVersionFor(GVNAWZ, ""); v != def {
		t.Errorf("zero-value PRE backend version %q differs from explicit drechsler %q", v, def)
	}
	if PipelineVersion() != def {
		t.Errorf("PipelineVersion() does not default to the drechsler backend")
	}
}

// TestPassNamesWithPREBackend: a non-default PRE backend swaps only the
// PRE slot of the partial level and above; baseline and none are
// identical across backends.
func TestPassNamesWithPREBackend(t *testing.T) {
	for _, pb := range []PREBackend{PRELospre} {
		for _, l := range append([]Level{LevelNone}, Levels...) {
			a := PassNamesWith(l, GVNAWZ, PREDrechsler)
			p := PassNamesWith(l, GVNAWZ, pb)
			if len(a) != len(p) {
				t.Fatalf("%s/%s: pass count differs across backends: %v vs %v", l, pb, a, p)
			}
			diff := 0
			for i := range a {
				if a[i] != p[i] {
					diff++
					if a[i] != "pre" || p[i] != pb.PassName() {
						t.Errorf("%s/%s: unexpected substitution %s -> %s", l, pb, a[i], p[i])
					}
				}
			}
			hasPRE := l == LevelPartial || l == LevelReassoc || l == LevelDist
			if hasPRE && diff != 1 || !hasPRE && diff != 0 {
				t.Errorf("%s/%s: %d slots differ across backends (%v vs %v)", l, pb, diff, a, p)
			}
		}
	}
}

// TestParsePREBackend covers the flag-value mapping, including the
// default and the error message naming the valid options.
func TestParsePREBackend(t *testing.T) {
	ok := []struct {
		in   string
		want PREBackend
	}{
		{"", PREDrechsler},
		{"drechsler", PREDrechsler},
		{"lospre", PRELospre},
	}
	for _, c := range ok {
		got, err := ParsePREBackend(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePREBackend(%q) = %v, %v; want %v, nil", c.in, got, err, c.want)
		}
	}
	for _, bad := range []string{"morel", "lcm", "LCM", "pre", "drechsler "} {
		if _, err := ParsePREBackend(bad); err == nil {
			t.Errorf("ParsePREBackend(%q) succeeded, want error", bad)
		} else {
			for _, name := range []string{"drechsler", "lospre"} {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("ParsePREBackend(%q) error %q does not name %s", bad, err, name)
				}
			}
		}
	}
	// Every backend's pass name must resolve to a registered pass.
	for _, b := range PREBackends {
		if _, err := PassByName(b.PassName()); err != nil {
			t.Errorf("backend %s: %v", b, err)
		}
	}
}
