package experiments

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/assemble"
	"repro/internal/consensus"
	"repro/internal/topology"
)

func TestMeasureGossipBasic(t *testing.T) {
	m, err := Measure(Point{Run: assemble.Run{Protocol: "trivial", N: 16, F: 4, D: 1, Delta: 1}, Seeds: 2}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Failures != 0 {
		t.Fatalf("failures: %d", m.Failures)
	}
	if m.Messages.Mean <= 0 || m.Time.Mean <= 0 {
		t.Fatalf("degenerate measurement: %+v", m)
	}
}

// TestMeasureShardsInvisible: the shard count — per point or via Env —
// only changes how runs execute, never what they measure.
func TestMeasureShardsInvisible(t *testing.T) {
	base := Point{Run: assemble.Run{Protocol: "tears", N: 33, F: 7, D: 2, Delta: 2}, Seeds: 2}
	serial, err := Measure(base, Env{})
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Shards = 5
	m, err := Measure(sharded, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, m) {
		t.Fatalf("sharded measurement diverged:\nserial  %+v\nsharded %+v", serial, m)
	}
	envM, err := Measure(base, Env{Shards: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, envM) {
		t.Fatalf("Env.Shards measurement diverged:\nserial %+v\nenv    %+v", serial, envM)
	}

	cbase := Point{Run: assemble.Run{Transport: consensus.TransportTEARS, N: 21, F: 5, D: 2, Delta: 2}, Seeds: 2}
	cserial, err := Measure(cbase, Env{})
	if err != nil {
		t.Fatal(err)
	}
	csharded := cbase
	csharded.Shards = 4
	cm, err := Measure(csharded, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cserial, cm) {
		t.Fatalf("sharded consensus measurement diverged:\nserial  %+v\nsharded %+v", cserial, cm)
	}
}

// TestMeasureGridMixedPoints: a gossip point on Erdős–Rényi and a
// consensus point without Inputs, measured on one grid, read exactly as
// each does measured alone, so the per-seed graph and input rules hold
// inside a mixed grid; and the grid resolves defaults on its own copy.
func TestMeasureGridMixedPoints(t *testing.T) {
	points := []Point{
		{Run: assemble.Run{
			Protocol: "ears", N: 32, D: 2, Delta: 2,
			Topology: topology.Spec{Family: topology.FamilyErdosRenyi},
		}, Seeds: 3},
		{Run: assemble.Run{Transport: consensus.TransportTEARS, N: 21, F: 5, D: 2, Delta: 2}},
	}
	ms, errs := measureGrid(points, Env{Workers: 2})
	if points[1].Seeds != 0 || points[1].Inputs != nil {
		t.Fatalf("measureGrid wrote to the caller's point: %+v", points[1])
	}
	for i, p := range points {
		alone, err := Measure(p, Env{Workers: 1})
		if err != nil || errs[i] != nil {
			t.Fatalf("point %d: grid error %v, alone error %v", i, errs[i], err)
		}
		if !reflect.DeepEqual(ms[i], alone) {
			t.Fatalf("point %d diverges in a mixed grid:\ngrid  %+v\nalone %+v", i, ms[i], alone)
		}
	}
}

func TestMeasureGossipSeedLabel(t *testing.T) {
	base := Point{Run: assemble.Run{Protocol: "ears", N: 32, F: 8, D: 2, Delta: 2}, Seeds: 3}
	legacy, err := Measure(base, Env{})
	if err != nil {
		t.Fatal(err)
	}
	a, b := base, base
	a.SeedLabel, b.SeedLabel = "cell-a", "cell-b"
	ma, err := Measure(a, Env{})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := Measure(b, Env{})
	if err != nil {
		t.Fatal(err)
	}
	// Distinct labels draw from distinct streams, and both differ from the
	// legacy run-index seeds.
	if reflect.DeepEqual(ma, mb) || reflect.DeepEqual(ma, legacy) {
		t.Fatalf("seed labels did not separate streams:\nlegacy: %+v\na: %+v\nb: %+v", legacy, ma, mb)
	}
	// The same label is deterministic.
	ma2, err := Measure(a, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ma, ma2) {
		t.Fatalf("labeled measurement not reproducible:\n%+v\n%+v", ma, ma2)
	}
}

func TestMeasureGossipUnknownProto(t *testing.T) {
	if _, err := Measure(Point{Run: assemble.Run{Protocol: "nope", N: 8, F: 0, D: 1, Delta: 1}}, Env{}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestMeasureConsensusBasic(t *testing.T) {
	m, err := Measure(Point{Run: assemble.Run{
		Transport: consensus.TransportDirect, N: 16, F: 7, D: 1, Delta: 1,
	}, Seeds: 2}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Failures != 0 {
		t.Fatalf("failures: %d", m.Failures)
	}
}

func TestTable1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation in -short mode")
	}
	res, err := Table1(Env{}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(table1Protos) {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	out := res.Render()
	for _, want := range []string{"trivial", "ears", "sears", "tears", "sync-epidemic"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
	// Structural claims at quick scale: trivial messages grow ~quadratically
	// and strictly faster than ears'.
	var trivialExp, earsExp float64
	for _, r := range res.Rows {
		switch r.Algo {
		case "trivial":
			trivialExp = r.MsgExp
		case "ears":
			earsExp = r.MsgExp
		}
	}
	if trivialExp < 1.8 {
		t.Errorf("trivial message exponent %.2f, want ≈ 2", trivialExp)
	}
	if earsExp >= trivialExp {
		t.Errorf("ears message exponent %.2f not below trivial %.2f", earsExp, trivialExp)
	}
	t.Logf("\n%s", out)
}

func TestTable2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("table generation in -short mode")
	}
	res, err := Table2(Env{}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	t.Logf("\n%s", res.Render())
}

func TestFigure1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("figure generation in -short mode")
	}
	res, err := Figure1(Env{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	witnessed := 0
	for _, row := range res.Rows {
		if row.Witnessed {
			witnessed++
		}
	}
	if witnessed < len(res.Rows)-1 {
		t.Fatalf("theorem dichotomy witnessed in only %d/%d rows:\n%s",
			witnessed, len(res.Rows), res.Render())
	}
	t.Logf("\n%s", res.Render())
}

func TestCostOfAsynchronyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("coa in -short mode")
	}
	res, err := CostOfAsynchrony(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows: %d", len(res.Rows))
	}
	t.Logf("\n%s", res.Render())
}

func TestDeltaSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	res, err := DeltaSweep(Env{})
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 12's structural claim: tears' message growth across the d
	// sweep is far below ears'.
	growth := func(proto string) float64 {
		s := res.Series[proto]
		if len(s) < 2 || s[0] == 0 {
			return 0
		}
		return s[len(s)-1] / s[0]
	}
	if growth("tears") >= growth("ears") {
		t.Errorf("tears d-growth %.2f not below ears %.2f:\n%s",
			growth("tears"), growth("ears"), res.Render())
	}
	t.Logf("\n%s", res.Render())
}

func TestAblationsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations in -short mode")
	}
	if res, err := AblationShutdown(Env{}); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(res.Render(), "shut-down") {
		t.Fatal("bad render")
	}
	if res, err := AblationEpsilon(Env{}); err != nil {
		t.Fatal(err)
	} else if len(res.Time) != len(res.Epsilons) {
		t.Fatal("missing points")
	}
	if res, err := AblationCoin(Env{}); err != nil {
		t.Fatal(err)
	} else if len(res.Time) != 2 {
		t.Fatal("missing coins")
	}
}

func TestSchedSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	res, err := SchedSweep(Env{})
	if err != nil {
		t.Fatal(err)
	}
	// Structural claim on the δ axis: tears' message count saturates (the
	// Theorem 12 ceiling is δ-independent), so the tail growth between
	// the last two δ points must be near 1.
	if g := tailGrowth(res.Series["tears"]); g > 1.15 {
		t.Errorf("tears δ tail-growth %.2f, want saturation near 1.00:\n%s", g, res.Render())
	}
	// ears is δ-flat outright (its local-step budget does not involve δ).
	if g := tailGrowth(res.Series["ears"]); g > 1.15 {
		t.Errorf("ears δ tail-growth %.2f, want flat:\n%s", g, res.Render())
	}
	t.Logf("\n%s", res.Render())
}

func TestFSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	res, err := FSweep(Env{})
	if err != nil {
		t.Fatal(err)
	}
	// Theorem 6: time grows with the survivor factor — the f=7n/8 point
	// must be slower than the f=0 point by a clear margin.
	first, last := res.Time[0].Mean, res.Time[len(res.Time)-1].Mean
	if last <= first {
		t.Errorf("ears time did not grow with f: f=0 %.0f vs f=max %.0f\n%s",
			first, last, res.Render())
	}
	t.Logf("\n%s", res.Render())
}

func TestCrossoverQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	res, err := Crossover(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if res.CrossoverN == 0 {
		t.Errorf("no ears/trivial crossover found:\n%s", res.Render())
	}
	t.Logf("\n%s", res.Render())
}

func TestPushPullSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	res, err := PushPullSweep(Env{})
	if err != nil {
		t.Fatal(err)
	}
	// The Panagiotou–Speidel regime: once density clears the connectivity
	// threshold, asynchronous spreading time is density-insensitive — the
	// densest point must not beat the sparsest by more than a small factor.
	for _, proto := range res.Variants {
		series := res.Time[proto]
		first, last := series[0].Mean, series[len(series)-1].Mean
		if last <= 0 || first <= 0 {
			t.Fatalf("%s: degenerate times:\n%s", proto, res.Render())
		}
		if first > 3*last {
			t.Errorf("%s: time fell %.1fx across the density sweep, want near-flat:\n%s",
				proto, first/last, res.Render())
		}
	}
	t.Logf("\n%s", res.Render())
}

func TestAveragingCurveQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	res, err := AveragingCurve(Env{})
	if err != nil {
		t.Fatal(err)
	}
	// Non-asymptotic diffusion time: tightening ε costs rounds linearly in
	// log(1/ε), so both the budget and the measured time must increase
	// monotonically along the curve.
	for i := 1; i < len(res.Epsilons); i++ {
		if res.Rounds[i] <= res.Rounds[i-1] {
			t.Errorf("round budget not increasing: R(ε=%g)=%d vs R(ε=%g)=%d",
				res.Epsilons[i], res.Rounds[i], res.Epsilons[i-1], res.Rounds[i-1])
		}
		if res.Time[i].Mean <= res.Time[i-1].Mean {
			t.Errorf("diffusion time not increasing at ε=%g:\n%s", res.Epsilons[i], res.Render())
		}
	}
	t.Logf("\n%s", res.Render())
}

func TestEarsStagesQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("stages in -short mode")
	}
	res, err := EarsStages(Env{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The §3.2 milestone ordering: gather ≤ first-sleep ≤ all-sleep.
	if !(res.GatheredAt.Mean <= res.FirstAsleepAt.Mean &&
		res.FirstAsleepAt.Mean <= res.AllAsleepAt.Mean) {
		t.Fatalf("milestones out of order:\n%s", res.Render())
	}
	t.Logf("\n%s", res.Render())
}

func TestRumorLatencyQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("latency in -short mode")
	}
	tbl, err := RumorLatencyTables(Env{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", tbl)
	// sears' per-rumor latency must be far below ears' (constant vs
	// polylog spreading).
	rEars, err := RumorLatency("ears", Env{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rSears, err := RumorLatency("sears", Env{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rSears.Latency.Mean >= rEars.Latency.Mean {
		t.Fatalf("sears latency %.1f not below ears %.1f", rSears.Latency.Mean, rEars.Latency.Mean)
	}
}
