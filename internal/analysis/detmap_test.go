package analysis_test

import (
	"testing"

	"costsense/internal/analysis"
	"costsense/internal/analysis/analysistest"
)

func TestDetmap(t *testing.T) {
	analysistest.Run(t, analysis.Detmap, "detmap")
}

func TestDetsource(t *testing.T) {
	analysistest.Run(t, analysis.Detsource, "detsource")
}

func TestHotpathalloc(t *testing.T) {
	analysistest.Run(t, analysis.Hotpathalloc, "hotpathalloc")
}

func TestArenaref(t *testing.T) {
	analysistest.Run(t, analysis.Arenaref, "arenaref")
}

// TestScope pins the deterministic-core scope rule: scoped analyzers
// cover the root, internal and cmd packages but not examples.
func TestScope(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"costsense", true},
		{"costsense/internal/sim", true},
		{"costsense/cmd/costsense", true},
		{"costsense/examples/quickstart", false},
		{"costsense/scripts/benchjson", false},
		{"othermodule/internal/sim", false},
	}
	for _, c := range cases {
		if got := analysis.Detmap.InScope("costsense", c.path); got != c.want {
			t.Errorf("InScope(%q) = %v, want %v", c.path, got, c.want)
		}
	}
	for _, c := range cases {
		if got := analysis.Arenaref.InScope("costsense", c.path); !got {
			t.Errorf("unscoped analyzer must apply to %q", c.path)
		}
	}
}
