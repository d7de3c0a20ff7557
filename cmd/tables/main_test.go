package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "figure1"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Theorem 1") {
		t.Fatalf("missing table:\n%s", buf.String())
	}
}

func TestRunUnknownExperimentIsNoop(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "unknown"}, &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatal("unknown experiment produced output")
	}
}

func TestWorkersReproduceSerialTables(t *testing.T) {
	// The engine's user-facing promise: -workers=8 renders byte-identical
	// tables to a serial run.
	for _, exp := range []string{"fsweep", "stages"} {
		var serial, parallel bytes.Buffer
		if err := run([]string{"-exp", exp, "-workers", "1"}, &serial); err != nil {
			t.Fatal(err)
		}
		if err := run([]string{"-exp", exp, "-workers", "8"}, &parallel); err != nil {
			t.Fatal(err)
		}
		if serial.String() != parallel.String() {
			t.Fatalf("%s diverges across worker counts:\n--- workers=1\n%s\n--- workers=8\n%s",
				exp, serial.String(), parallel.String())
		}
	}
}

func TestSeedsFlagOverridesRepetitions(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-exp", "fsweep", "-seeds", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	// One seed per point: every summary collapses to ± 0.0.
	if strings.Contains(buf.String(), "± 0.0") == false {
		t.Fatalf("single-seed run still shows spread:\n%s", buf.String())
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-zzz"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunCSVExport(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if err := run([]string{"-exp", "figure1", "-csv", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figure1.csv"))
	if err != nil {
		t.Fatal(err)
	}
	content := string(data)
	if !strings.Contains(content, "protocol,n,f,case") {
		t.Fatalf("csv header missing:\n%s", content)
	}
	if !strings.Contains(content, "trivial") {
		t.Fatalf("csv rows missing:\n%s", content)
	}
}

// TestQuickAllGolden pins the whole quick-scale output of every experiment
// (Tables 1 and 2, the sweeps, stages, latency and ablations) byte for
// byte: a change to how any experiment assembles its runs — seeds,
// consensus inputs, coins, topologies, adversaries — moves a line here.
func TestQuickAllGolden(t *testing.T) {
	const golden = "testdata/quick-all.golden"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := run([]string{"-exp", "all"}, &buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Errorf("quick tables drifted from %s:\n%s"+
			"If the change is intended, regenerate it from the repository root with\n"+
			"\tgo run ./cmd/tables -exp all > cmd/tables/%s",
			golden, lineDiff(string(want), got), golden)
	}
}

// lineDiff lists each line at which two texts differ as a -want/+got pair.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for i := 0; i < max(len(w), len(g)); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&b, "-%s\n+%s\n", wl, gl)
		}
	}
	return b.String()
}
