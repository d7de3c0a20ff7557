// Parallel-vs-serial equivalence: the acceptance bar for the execution
// engine is that fanning a (spec × seed) grid across workers changes
// nothing but wall-clock time. These tests run real experiment points —
// a Table 1 point, a topology point and Table 2 — at workers=1 and workers=8 and
// require identical Measurement values (and they run under -race in CI,
// so a data race in the pool or the harness fails them too).
package runner_test

import (
	"reflect"
	"testing"

	"repro/internal/assemble"
	"repro/internal/experiments"
	"repro/internal/topology"
)

func TestGossipParallelEqualsSerialTable1Spec(t *testing.T) {
	// A Table 1 design point: ears at f = n/4 under the standard adversary.
	p := experiments.Point{Run: assemble.Run{
		Protocol: "ears", N: 48, F: 12, D: 2, Delta: 2,
	}, Seeds: 6}
	serial, err := experiments.Measure(p, experiments.Env{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.Measure(p, experiments.Env{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("workers=1 and workers=8 diverge:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestGossipParallelEqualsSerialTopologySpec(t *testing.T) {
	// A topology sweep point: each seed generates its own graph instance,
	// so this also pins graph generation inside worker goroutines.
	p := experiments.Point{Run: assemble.Run{
		Protocol: "ears", N: 48, F: 0, D: 2, Delta: 2,
		Topology: topology.Spec{Family: "erdos-renyi"},
	}, Seeds: 6}
	serial, err := experiments.Measure(p, experiments.Env{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.Measure(p, experiments.Env{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("workers=1 and workers=8 diverge:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestConsensusParallelEqualsSerial(t *testing.T) {
	// Table 2: consensus over every transport (direct, ears, sears, tears)
	// on one grid, so this pins each get-core transport inside worker
	// goroutines.
	serial, err := experiments.Table2(experiments.Env{Workers: 1}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.Table2(experiments.Env{Workers: 8}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("workers=1 and workers=8 diverge:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

func TestExperimentParallelEqualsSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-experiment equivalence in -short mode")
	}
	// A whole experiment entry point (many specs on one grid): the f sweep
	// exercises aggregation across multi-seed cells in spec order.
	serial, err := experiments.FSweep(experiments.Env{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := experiments.FSweep(experiments.Env{Workers: 8})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("FSweep diverges across worker counts:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}
