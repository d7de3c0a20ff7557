package telemetry

import (
	"strings"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/sim"
)

func TestTimelineGlyphs(t *testing.T) {
	cases := []struct {
		bits uint8
		want byte
	}{
		{0, '.'},
		{cellStep, '-'},
		{cellStep | cellSend, '*'},
		{cellStep | cellRecv, 'o'},
		{cellStep | cellSend | cellRecv, '#'},
		{cellCrash, 'X'},
		{cellCrash | cellStep | cellSend, 'X'}, // crash dominates
	}
	for _, c := range cases {
		if got := glyph(c.bits); got != c.want {
			t.Errorf("glyph(%b) = %c, want %c", c.bits, got, c.want)
		}
	}
}

func TestTimelineRenderSmallRun(t *testing.T) {
	cfg := sim.Config{N: 6, F: 2, D: 2, Delta: 2, Seed: 3}
	p := core.Params{N: cfg.N, F: cfg.F}
	nodes, err := core.NewNodes(core.EARS{}, p, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	adv, _ := adversary.ByName(adversary.PresetStandard, cfg)
	w, err := sim.NewWorld(cfg, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	tl := NewTimeline(cfg.N, 200)
	w.SetTracer(tl)
	if _, err := w.Run(core.EARS{}.Evaluator(p)); err != nil {
		t.Fatal(err)
	}
	out := tl.Render()
	if !strings.Contains(out, "p0") || !strings.Contains(out, "legend:") {
		t.Fatalf("bad render:\n%s", out)
	}
	// Every process row exists and at least one send happened somewhere.
	if !strings.ContainsAny(out, "*#") {
		t.Fatalf("no sends drawn:\n%s", out)
	}
	lines := strings.Split(out, "\n")
	if len(lines) < cfg.N+2 {
		t.Fatalf("too few lines: %d", len(lines))
	}
	t.Logf("\n%s", out)
}

func TestTimelineCrashRendering(t *testing.T) {
	tl := NewTimeline(2, 40)
	tl.OnStep(0, 0)
	tl.OnSend(sim.Message{From: 0, To: 1, SentAt: 0})
	tl.OnCrash(1, 2)
	tl.OnStep(0, 3)
	out := tl.Render()
	if !strings.Contains(out, "X") {
		t.Fatalf("crash not drawn:\n%s", out)
	}
	// After the crash the row is blank (spaces), not glyphs.
	rows := strings.Split(out, "\n")
	var p1row string
	for _, r := range rows {
		if strings.HasPrefix(r, "p1") {
			p1row = r
		}
	}
	if p1row == "" {
		t.Fatal("missing p1 row")
	}
	if !strings.HasSuffix(p1row, " ") {
		t.Fatalf("post-crash cells not blank: %q", p1row)
	}
}

func TestTimelineClipping(t *testing.T) {
	tl := NewTimeline(1, 10)
	for i := sim.Time(0); i < 50; i++ {
		tl.OnStep(0, i)
	}
	out := tl.Render()
	if !strings.Contains(out, "clipped") {
		t.Fatalf("clip note missing:\n%s", out)
	}
}

func TestTimelineIgnoresOutOfRange(t *testing.T) {
	tl := NewTimeline(2, 10)
	tl.OnStep(-1, 0)
	tl.OnStep(5, 0)
	tl.OnStep(0, -3)
	out := tl.Render()
	if strings.Contains(out, "-") && strings.Count(out, "-") > 10 {
		t.Fatalf("out-of-range events drawn:\n%s", out)
	}
}
