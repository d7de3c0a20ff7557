package assemble

import (
	"reflect"
	"testing"

	"repro/internal/consensus"
	"repro/internal/topology"
)

// TestCompleteGraphIsNil pins the one complete-graph rule: named or
// defaulted, the complete graph is the nil graph of the paper's model,
// while any other family is built.
func TestCompleteGraphIsNil(t *testing.T) {
	for _, family := range []string{"", topology.FamilyComplete} {
		g, err := Graph(topology.Spec{Family: family, N: 8})
		if err != nil || g != nil {
			t.Fatalf("family %q: graph %v, err %v; want nil, nil", family, g, err)
		}
	}
	pc, err := Build(Run{Protocol: "ears", N: 8, D: 1, Delta: 1, Topology: topology.Spec{Family: topology.FamilyRing}})
	if err != nil {
		t.Fatal(err)
	}
	if g := pc.Config.Graph; g == nil || g.Name() != topology.FamilyRing || g.N() != 8 {
		t.Fatalf("ring run got graph %v", g)
	}
}

// TestConsensusInputsDefault pins the consensus input policy: without
// explicit inputs, a run proposes RandomInputs(n, seed), and its evaluator
// judges against the same proposals.
func TestConsensusInputsDefault(t *testing.T) {
	pc, err := Build(Run{Transport: consensus.TransportTEARS, N: 16, F: 3, D: 1, Delta: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	want := consensus.RandomInputs(16, 9)
	if !reflect.DeepEqual(pc.Inputs, want) {
		t.Fatalf("inputs %v, want %v", pc.Inputs, want)
	}
	if ev, ok := pc.Evaluator.(consensus.Evaluator); !ok || !reflect.DeepEqual(ev.Inputs, want) {
		t.Fatalf("evaluator %#v does not judge the run's inputs", pc.Evaluator)
	}
}
