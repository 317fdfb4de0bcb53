package repro_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryModelArtifactIsChecked: a committed virtual-time result that
// `make twin-exact` does not regenerate and compare goes stale unnoticed, so
// every BENCH_*.json and results_*.txt in the repo root must be named in that
// target's recipe.
func TestEveryModelArtifactIsChecked(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	recipe := makeRule(string(mk), "twin-exact")
	if recipe == "" {
		t.Fatal("Makefile has no twin-exact recipe")
	}

	var artifacts []string
	for _, pattern := range []string{"BENCH_*.json", "results_*.txt"} {
		names, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		artifacts = append(artifacts, names...)
	}
	if len(artifacts) == 0 {
		t.Fatal("no BENCH_*.json or results_*.txt in the repo root")
	}
	for _, name := range artifacts {
		if !strings.Contains(recipe, name) {
			t.Errorf("%s is committed but `make twin-exact` never compares it: add it to the recipe or delete it", name)
		}
	}
}
