package experiments

import (
	"strings"
	"testing"

	"repro/internal/assemble"
	"repro/internal/topology"
)

func TestMeasureGossipWithTopology(t *testing.T) {
	m, err := Measure(Point{Run: assemble.Run{
		Protocol: "ears", N: 32, F: 0, D: 1, Delta: 1,
		Topology: topology.Spec{Family: topology.FamilyRing},
	}, Seeds: 2}, Env{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Failures != 0 {
		t.Fatalf("failures: %d", m.Failures)
	}
	if m.Messages.Mean <= 0 {
		t.Fatalf("degenerate measurement: %+v", m)
	}
}

func TestTopologySweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep generation in -short mode")
	}
	res, err := TopologySweep(Env{})
	if err != nil {
		t.Fatal(err)
	}
	// 3 protocols × all families, with stats aggregated per point.
	if want := 3 * len(topoFamilies()); len(res.Points) != want {
		t.Fatalf("points: %d, want %d", len(res.Points), want)
	}
	// ears must complete on every connected family.
	for _, p := range res.Points {
		if p.Proto == "ears" && p.Complete != 1 {
			t.Errorf("ears on %s: completion %.0f%%", p.Family, p.Complete*100)
		}
	}
	out := res.Table().String()
	for _, family := range topoFamilies() {
		if !strings.Contains(out, family) {
			t.Fatalf("table missing family %s:\n%s", family, out)
		}
	}
}

func TestNPSweepQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep generation in -short mode")
	}
	res, err := NPSweep(Env{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Time) != len(res.Cs) || len(res.MeanDeg) != len(res.Cs) {
		t.Fatalf("ragged sweep: %+v", res)
	}
	if !strings.Contains(res.Table().String(), "mean deg") {
		t.Fatal("table missing mean-degree column")
	}
}
