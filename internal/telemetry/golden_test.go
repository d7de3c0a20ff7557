package telemetry_test

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// regenTimeline rewrites the golden render instead of asserting it.
var regenTimeline = flag.Bool("regen-timeline", false, "rewrite testdata/timeline_trivial.golden instead of asserting it")

// TestTimelineGoldenRender pins the full rendered diagram of the same
// pinned scenario the scenario package's golden digest covers ("trivial",
// n=24, seed 1234, spread crashes). The digest pins the event stream; this
// pins the rendering of it — axis, glyph choice, crash blanking, legend —
// so a cosmetic regression in the renderer can't hide behind an unchanged
// digest. Regenerate with:
//
//	go test ./internal/telemetry -run TestTimelineGoldenRender -regen-timeline
//
// and commit the new file alongside the renderer change that explains it.
func TestTimelineGoldenRender(t *testing.T) {
	spec := scenario.Spec{
		Protocol: "trivial", N: 24, F: 3, D: 2, Delta: 2,
		Seed:     1234,
		MaxSteps: 200000,
		Schedule: scenario.ScheduleSpec{Kind: scenario.SchedStride, Seed: 51},
		Delay:    scenario.DelaySpec{Kind: scenario.DelayUniform, Seed: 52},
		Crashes: []scenario.CrashEvent{
			{At: 3, Proc: 1}, {At: 9, Proc: 4}, {At: 17, Proc: 2},
		},
	}
	tl := telemetry.NewTimeline(spec.N, 160)
	ex, err := scenario.ExecuteTraced(spec, tl)
	if err != nil {
		t.Fatal(err)
	}
	if ex.RunErr != nil {
		t.Fatalf("golden scenario failed to run: %v", ex.RunErr)
	}
	got := tl.Render()

	path := filepath.Join("testdata", "timeline_trivial.golden")
	if *regenTimeline {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -regen-timeline)", err)
	}
	if got != string(want) {
		t.Errorf("rendered timeline drifted from %s.\n"+
			"If the change is intentional, regenerate with -regen-timeline and commit it.\n"+
			"got:\n%s\nwant:\n%s", path, got, want)
	}
}

// TestTimelineCrashBeyondWindow pins the interplay of crash bookkeeping and
// maxCols truncation: a crash past the drawn window must not blank the
// process's visible row (the process was alive for every drawn column),
// and the clipped note still reports the true horizon.
func TestTimelineCrashBeyondWindow(t *testing.T) {
	tl := telemetry.NewTimeline(2, 10)
	for at := sim.Time(0); at < 10; at++ {
		tl.OnStep(0, at)
		tl.OnStep(1, at)
	}
	tl.OnStep(1, 30)
	tl.OnCrash(1, 30)
	out := tl.Render()
	lines := splitLines(out)
	// Row p1: all ten drawn columns stepped, none blanked by the off-screen
	// crash, no 'X' drawn inside the window.
	row := lines[2]
	for _, c := range row[7:] {
		if c != '-' {
			t.Fatalf("p1 row = %q, want ten '-' cells (off-screen crash must not blank or mark drawn columns)", row)
		}
	}
	if !contains(lines, "(clipped at t=10; run continued to t=30)") {
		t.Errorf("missing clipped note with true horizon:\n%s", out)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}

func contains(lines []string, want string) bool {
	for _, l := range lines {
		if l == want {
			return true
		}
	}
	return false
}
