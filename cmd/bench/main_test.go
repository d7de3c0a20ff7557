package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchQuickEmitsValidArtifact runs the pinned quick suite, checks the
// artifact's shape, and gates it against the committed BENCH_gossip.json:
// steps, messages and bytes are deterministic, so a behaviour change
// anywhere in the stack fails here and names the cell that moved. If the
// change is intended, regenerate the baseline from the repository root with
//
//	go run ./cmd/bench -quick -out BENCH_gossip.json
func TestBenchQuickEmitsValidArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "b.json")
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-compare", "../../BENCH_gossip.json", "-out", path}, &buf); err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "wrote") || !strings.Contains(buf.String(), "compare OK") {
		t.Fatalf("no summary lines:\n%s", buf.String())
	}

	// The artifact must parse, carry the pinned schema, and pass -check.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file benchFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	if file.Schema != schemaVersion {
		t.Fatalf("schema %q", file.Schema)
	}
	if file.Scale != "quick" || file.Seeds != 3 { // the committed baseline's seed count
		t.Fatalf("scale=%q seeds=%d", file.Scale, file.Seeds)
	}
	if want := len(suite("quick")) * 2; len(file.Results) != want { // 2 quick n points
		t.Fatalf("results: %d, want %d", len(file.Results), want)
	}
	// The clique cells must have real measurements.
	for _, e := range file.Results {
		if e.Topology == "complete" && (e.StepsPerRun <= 0 || e.MsgsPerRun <= 0 || e.Failures != 0) {
			t.Fatalf("degenerate clique cell: %+v", e)
		}
	}
	var checkBuf bytes.Buffer
	if err := run([]string{"-check", path}, &checkBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(checkBuf.String(), "valid") {
		t.Fatalf("check output:\n%s", checkBuf.String())
	}
}

func TestCheckRejectsInvalidArtifacts(t *testing.T) {
	dir := t.TempDir()
	cases := map[string]string{
		"bad-schema.json":  `{"schema":"nope/v9","generated":"2026-01-01T00:00:00Z","go_version":"go1.22","scale":"quick","workers":1,"seeds":1,"results":[{"name":"x","protocol":"ears","topology":"complete","n":8,"f":2,"seeds":1,"failures":0,"steps_per_run":1,"msgs_per_run":1,"wall_ns":1}]}`,
		"no-results.json":  `{"schema":"` + schemaVersion + `","generated":"2026-01-01T00:00:00Z","go_version":"go1.22","scale":"quick","workers":1,"seeds":1,"results":[]}`,
		"bad-cell.json":    `{"schema":"` + schemaVersion + `","generated":"2026-01-01T00:00:00Z","go_version":"go1.22","scale":"quick","workers":1,"seeds":1,"results":[{"name":"x","protocol":"ears","topology":"complete","n":0,"f":0,"seeds":1,"failures":0,"steps_per_run":1,"msgs_per_run":1,"wall_ns":1}]}`,
		"not-json.json":    `{`,
		"unknown-key.json": `{"schema":"` + schemaVersion + `","generated":"2026-01-01T00:00:00Z","go_version":"go1.22","scale":"quick","workers":1,"seeds":1,"surprise":true,"results":[{"name":"x","protocol":"ears","topology":"complete","n":8,"f":2,"seeds":1,"failures":0,"steps_per_run":1,"msgs_per_run":1,"wall_ns":1}]}`,
	}
	for name, content := range cases {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := run([]string{"-check", path}, &buf); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckMissingFile(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-check", filepath.Join(t.TempDir(), "absent.json")}, &buf); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBadFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-zzz"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}

// artifactJSON builds a minimal valid artifact for compare tests.
func artifactJSON(stepsA, msgsA float64, wallA int64, allocsA float64) string {
	return `{"schema":"` + schemaVersion + `","generated":"2026-01-01T00:00:00Z","go_version":"go1.22",` +
		`"scale":"quick","workers":1,"seeds":2,"results":[` +
		`{"name":"a","protocol":"ears","topology":"complete","n":8,"f":2,"seeds":2,"failures":0,` +
		`"steps_per_run":` + fmt.Sprint(stepsA) + `,"msgs_per_run":` + fmt.Sprint(msgsA) +
		`,"wall_ns":` + fmt.Sprint(wallA) + `,"allocs_per_run":` + fmt.Sprint(allocsA) + `}]}`
}

// TestCompareExactAndTolerant pins the gate semantics: identical
// complexity metrics pass (wall clock and allocations are not compared),
// while any complexity drift fails.
func TestCompareExactAndTolerant(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", artifactJSON(10, 100, 1000, 50))

	// Same complexity, 3x wall and allocs: pass.
	slower := write("slower.json", artifactJSON(10, 100, 3000, 150))
	var buf bytes.Buffer
	if err := run([]string{"-compare", base, slower}, &buf); err != nil {
		t.Fatalf("cost-only movement failed the gate: %v\n%s", err, buf.String())
	}

	// Different message complexity: fail.
	drifted := write("drifted.json", artifactJSON(10, 101, 1000, 50))
	buf.Reset()
	if err := run([]string{"-compare", base, drifted}, &buf); err == nil {
		t.Fatalf("complexity drift passed the gate:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "msgs/run") {
		t.Fatalf("failure does not name the drifted metric:\n%s", buf.String())
	}

	// Incomparable grids (different seeds) are an error, not a silent pass.
	other := write("other-seeds.json", strings.Replace(artifactJSON(10, 100, 1000, 50), `"seeds":2`, `"seeds":3`, 1))
	if err := run([]string{"-compare", base, other}, &bytes.Buffer{}); err == nil {
		t.Fatal("mismatched seed grids compared")
	}

	// A baseline cell disappearing from fresh results is a failure.
	twoCell := strings.Replace(artifactJSON(10, 100, 1000, 50),
		`"results":[`,
		`"results":[{"name":"b","protocol":"ears","topology":"ring","n":8,"f":0,"seeds":2,"failures":0,"steps_per_run":5,"msgs_per_run":50,"wall_ns":500},`, 1)
	baseTwo := write("base-two.json", twoCell)
	buf.Reset()
	if err := run([]string{"-compare", baseTwo, base}, &buf); err == nil {
		t.Fatalf("missing cell passed the gate:\n%s", buf.String())
	}
}

// TestCompareMatchedSeedsFlag runs the quick suite twice (tiny seed count)
// and gates the second run against the first: determinism makes this pass
// by construction, end to end through the CLI. The second run is sharded,
// so the pass also pins the tentpole contract — a sharded suite is
// byte-identical to the serial baseline on every complexity measure.
func TestCompareMatchedSeedsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("bench suite in -short mode")
	}
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	if err := run([]string{"-quick", "-seeds", "1", "-out", basePath}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	out := filepath.Join(dir, "fresh.json")
	if err := run([]string{"-quick", "-seeds", "1", "-shards", "3", "-out", out, "-compare", basePath}, &buf); err != nil {
		t.Fatalf("sharded self-compare failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "compare OK") {
		t.Fatalf("no compare summary:\n%s", buf.String())
	}
}

// TestXLargeSuiteShape pins the nightly xlarge tier's structure without
// running it: every cell is lean and sharded, and the first n of every
// family duplicates a large-tier cell exactly, so the -overlap gate
// against BENCH_large.json always has cells to compare.
func TestXLargeSuiteShape(t *testing.T) {
	large := map[string]bool{}
	for _, c := range suite("large") {
		for _, n := range c.ns {
			large[fmt.Sprintf("%s/%s/n=%d", c.proto, c.family, n)] = true
		}
	}
	overlapping := 0
	for _, c := range suite("xlarge") {
		if !c.lean || c.shards < 2 {
			t.Fatalf("xlarge cell %s/%s: lean=%v shards=%d, want lean sharded", c.proto, c.family, c.lean, c.shards)
		}
		if large[fmt.Sprintf("%s/%s/n=%d", c.proto, c.family, c.ns[0])] {
			overlapping++
		}
	}
	if overlapping != len(suite("xlarge")) {
		t.Fatalf("only %d/%d xlarge families overlap the large tier", overlapping, len(suite("xlarge")))
	}
}

// TestCompareOverlap pins the cross-scale gate: only shared cells are
// compared, baseline-only cells are notes not failures, zero overlap is
// an error, and shared-cell drift still fails.
func TestCompareOverlap(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	cell := func(name string, msgs float64) string {
		return `{"name":"` + name + `","protocol":"ears","topology":"complete","n":8,"f":2,"seeds":2,"failures":0,` +
			`"steps_per_run":10,"msgs_per_run":` + fmt.Sprint(msgs) + `,"wall_ns":1000}`
	}
	file := func(scale string, cells ...string) string {
		return `{"schema":"` + schemaVersion + `","generated":"2026-01-01T00:00:00Z","go_version":"go1.22",` +
			`"scale":"` + scale + `","workers":1,"seeds":2,"results":[` + strings.Join(cells, ",") + `]}`
	}
	base := write("large.json", file("large", cell("a", 100), cell("only-base", 7)))

	// Shared cell identical, baseline-only cell skipped: overlap passes
	// where the plain gate would fail on both scale and the missing cell.
	freshPath := write("xlarge.json", file("xlarge", cell("a", 100), cell("only-fresh", 9)))
	var buf bytes.Buffer
	if err := run([]string{"-compare", base, "-overlap", freshPath}, &buf); err != nil {
		t.Fatalf("overlap compare failed: %v\n%s", err, buf.String())
	}
	if !strings.Contains(buf.String(), "outside the overlap") {
		t.Fatalf("baseline-only cell not noted:\n%s", buf.String())
	}
	if err := run([]string{"-compare", base, freshPath}, &bytes.Buffer{}); err == nil {
		t.Fatal("cross-scale compare passed without -overlap")
	}

	// Drift in the shared cell still fails under -overlap.
	drifted := write("drifted.json", file("xlarge", cell("a", 101)))
	buf.Reset()
	if err := run([]string{"-compare", base, "-overlap", drifted}, &buf); err == nil {
		t.Fatalf("shared-cell drift passed the overlap gate:\n%s", buf.String())
	}

	// No shared cells: error, not a vacuous pass.
	disjoint := write("disjoint.json", file("xlarge", cell("z", 5)))
	if err := run([]string{"-compare", base, "-overlap", disjoint}, &bytes.Buffer{}); err == nil {
		t.Fatal("disjoint overlap compare passed")
	}
}

func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-quick", "-xlarge"},
		{"-large", "-xlarge"},
		{"-overlap"},
		{"-quick", "-shards", "-1"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
