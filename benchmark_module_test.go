package repro

import (
	"os/exec"
	"strings"
	"testing"
)

// TestBenchmarkModule vets and tests the nested benchmark module
// (benchmark/, its own go.mod), which `go test ./...` does not descend
// into. That module builds against this package's exported API — Run, the
// Spec types, the options — so removing or renaming any name it uses
// fails here instead of only when the benchmark is next run.
func TestBenchmarkModule(t *testing.T) {
	if testing.Short() {
		t.Skip("nested module build and tests in -short mode")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go toolchain not on PATH")
	}
	for _, args := range [][]string{
		{"vet", "-C", "benchmark", "./..."},
		{"test", "-C", "benchmark", "./..."},
	} {
		if out, err := exec.Command(goBin, args...).CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
}
