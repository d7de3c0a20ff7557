package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// TestFuzzRunsReproducible: the acceptance contract — `fuzz -runs 200
// -seed 1` emits byte-identical output across invocations and worker
// counts, and a clean stream exits 0.
func TestFuzzRunsReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz session in -short mode")
	}
	outputs := make([]string, 0, 3)
	for _, args := range [][]string{
		{"-runs", "200", "-seed", "1"},
		{"-runs", "200", "-seed", "1"},
		{"-runs", "200", "-seed", "1", "-workers", "1"},
	} {
		var buf bytes.Buffer
		if code := run(args, &buf); code != 0 {
			t.Fatalf("%v: exit %d\n%s", args, code, buf.String())
		}
		outputs = append(outputs, buf.String())
	}
	if outputs[0] != outputs[1] {
		t.Fatal("two identical sessions emitted different bytes")
	}
	if outputs[0] != outputs[2] {
		t.Fatal("serial output differs from parallel output")
	}
	var sum scenario.Summary
	if err := json.Unmarshal([]byte(outputs[0]), &sum); err != nil {
		t.Fatalf("summary is not valid JSON: %v", err)
	}
	if sum.Schema != scenario.SummarySchema || sum.Runs != 200 {
		t.Fatalf("summary: %+v", sum)
	}
}

// TestFuzzSummarySeed1 pins the 4000-scenario session on the default stream
// to a committed summary. A behaviour change anywhere under the fuzzer — a
// protocol, the kernel, an adversary, an oracle — moves a count or an
// envelope statistic and fails here with the lines that moved.
func TestFuzzSummarySeed1(t *testing.T) {
	if testing.Short() {
		t.Skip("4000-scenario fuzz session in -short mode")
	}
	const golden = "testdata/fuzz-summary-seed1.json"
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	code := run([]string{"-runs", "4000", "-seed", "1", "-quiet"}, &buf)
	if got := buf.String(); got != string(want) {
		t.Errorf("fuzz summary drifted from %s:\n%s"+
			"If the change is intended, regenerate it from the repository root with\n"+
			"\tgo run ./cmd/fuzz -runs 4000 -seed 1 -quiet > cmd/fuzz/%s",
			golden, lineDiff(string(want), got), golden)
	}
	if code != 0 {
		t.Errorf("exit %d", code)
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

// TestFuzzUsageErrors: missing/conflicting mode flags exit 2.
func TestFuzzUsageErrors(t *testing.T) {
	var buf bytes.Buffer
	if code := run(nil, &buf); code != 2 {
		t.Fatalf("no mode: exit %d", code)
	}
	if code := run([]string{"-runs", "5", "-duration", "1s"}, &buf); code != 2 {
		t.Fatalf("both modes: exit %d", code)
	}
	if code := run([]string{"-bogus-flag"}, &buf); code != 2 {
		t.Fatalf("bad flag: exit %d", code)
	}
}

// TestFuzzDurationMode: a tiny time box still runs at least one batch and
// exits cleanly.
func TestFuzzDurationMode(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz session in -short mode")
	}
	var buf bytes.Buffer
	if code := run([]string{"-duration", "1ms", "-seed", "1"}, &buf); code != 0 {
		t.Fatalf("duration mode: exit %d\n%s", code, buf.String())
	}
	var sum scenario.Summary
	if err := json.Unmarshal(buf.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Runs < 200 {
		t.Fatalf("time-boxed session ran %d scenarios, want at least one batch", sum.Runs)
	}
}

// TestFuzzReproMode: a report written by hand (from a synthetic violation
// the harness genuinely detects — tears under-delivery on a ring, outside
// the generator's domain on purpose) replays through -repro.
func TestFuzzReproMode(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz session in -short mode")
	}
	spec := scenario.Spec{
		Protocol: "tears", N: 24, F: 0, D: 1, Delta: 1, Seed: 5,
		Topology: "ring",
		Schedule: scenario.ScheduleSpec{Kind: scenario.SchedEvery},
		Delay:    scenario.DelaySpec{Kind: scenario.DelayFixed, Value: 1},
		MaxSteps: 20000, Majority: true, ExpectComplete: true,
	}
	rep := scenario.Report{
		Schema: scenario.ReportSchema, MasterSeed: 0, Index: 0,
		Label:      spec.Label(),
		Violations: []scenario.OracleViolation{{Oracle: "completion", Detail: "synthetic"}},
		Spec:       spec, Minimized: spec,
	}
	data, err := rep.Encode()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), rep.Filename())
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if code := run([]string{"-repro", path}, &buf); code != 0 {
		t.Fatalf("repro did not reproduce: exit %d\n%s", code, buf.String())
	}
	if !strings.Contains(buf.String(), "reproduced") {
		t.Fatalf("no verdict in output:\n%s", buf.String())
	}
	// A corrupt report is a usage error.
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("{"), 0o644)
	if code := run([]string{"-repro", bad}, &buf); code != 2 {
		t.Fatalf("corrupt report: exit %d", code)
	}
}

// TestFuzzReportArtifacts: the -out directory is created and probed up
// front — a nightly session must not discover a broken report path only
// when its first violation tries to write — and a clean session leaves it
// empty (report writing on violations is covered by the scenario package's
// mutation tests, which own the fault-injection hook).
func TestFuzzReportArtifacts(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz session in -short mode")
	}
	dir := filepath.Join(t.TempDir(), "reports")
	var buf bytes.Buffer
	if code := run([]string{"-runs", "50", "-seed", "1", "-out", dir}, &buf); code != 0 {
		t.Fatalf("exit %d", code)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("-out directory was not created up front: %v", err)
	}
	if len(entries) != 0 {
		t.Fatalf("clean session wrote %d reports", len(entries))
	}

	// An unusable -out path fails immediately with a usage error, before
	// any scenario runs.
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-runs", "50", "-seed", "1", "-out", filepath.Join(blocker, "reports")}, &buf); code != 2 {
		t.Fatalf("unusable -out: exit %d, want 2", code)
	}
}

// seedCorpusCopy clones the committed mini-corpus into a fresh directory,
// the way the nightly workflow seeds an empty cache.
func seedCorpusCopy(t *testing.T) string {
	t.Helper()
	const src = "../../testdata/corpus-seed"
	dir := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// corpusState snapshots a corpus directory's file names and bytes.
func corpusState(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = string(data)
	}
	return out
}

// TestFuzzCorpusTwoPhaseDeterminism: the campaign acceptance contract —
// running `fuzz -corpus` twice from the same seed corpus and master seed
// produces byte-identical summaries AND byte-identical final corpora, so a
// nightly finding is reproducible locally from the cached corpus artifact.
func TestFuzzCorpusTwoPhaseDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("fuzz session in -short mode")
	}
	session := func() (string, map[string]string) {
		dir := seedCorpusCopy(t)
		var buf bytes.Buffer
		if code := run([]string{
			"-runs", "150", "-seed", "3", "-corpus", dir, "-mutate-frac", "0.6", "-quiet",
		}, &buf); code != 0 {
			t.Fatalf("exit %d\n%s", code, buf.String())
		}
		return buf.String(), corpusState(t, dir)
	}
	sum1, corp1 := session()
	sum2, corp2 := session()
	if sum1 != sum2 {
		t.Error("two identical steered sessions emitted different summaries")
	}
	if len(corp1) != len(corp2) {
		t.Fatalf("final corpora differ in size: %d vs %d", len(corp1), len(corp2))
	}
	for name, data := range corp1 {
		if corp2[name] != data {
			t.Fatalf("final corpora differ at %s", name)
		}
	}

	var sum scenario.Summary
	if err := json.Unmarshal([]byte(sum1), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Corpus == nil {
		t.Fatal("steered summary carries no corpus block")
	}
	if sum.Corpus.Replayed == 0 || sum.Corpus.Seeded == 0 {
		t.Fatalf("seed corpus was not replayed: %+v", sum.Corpus)
	}
	if sum.Corpus.MutatedRuns == 0 {
		t.Fatalf("no mutated runs at -mutate-frac 0.6: %+v", sum.Corpus)
	}
	if len(corp1) < sum.Corpus.Seeded {
		t.Fatalf("final corpus (%d files) shrank below the seed (%d)", len(corp1), sum.Corpus.Seeded)
	}
}

// TestFuzzCorpusBadInputs: -mutate-frac outside [0,1] is a usage error,
// and a corrupt corpus entry is skipped with a warning — the session still
// runs and exits clean.
func TestFuzzCorpusBadInputs(t *testing.T) {
	var buf bytes.Buffer
	if code := run([]string{"-runs", "5", "-mutate-frac", "1.5"}, &buf); code != 2 {
		t.Fatalf("-mutate-frac 1.5: exit %d, want 2", code)
	}
	if code := run([]string{"-runs", "5", "-mutate-frac", "-0.1"}, &buf); code != 2 {
		t.Fatalf("-mutate-frac -0.1: exit %d, want 2", code)
	}
	if testing.Short() {
		t.Skip("fuzz session in -short mode")
	}
	dir := seedCorpusCopy(t)
	if err := os.WriteFile(filepath.Join(dir, "0000000000000000.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if code := run([]string{"-runs", "50", "-seed", "1", "-corpus", dir, "-quiet"}, &buf); code != 0 {
		t.Fatalf("corrupt entry aborted the campaign: exit %d\n%s", code, buf.String())
	}
	// Save rewrites the directory from the surviving entries: the corrupt
	// file is gone, not resurrected into the cache.
	if _, err := os.Stat(filepath.Join(dir, "0000000000000000.json")); !os.IsNotExist(err) {
		t.Error("corrupt corpus entry survived the session's save")
	}
}
