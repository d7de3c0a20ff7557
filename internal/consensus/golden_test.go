package consensus

import (
	"testing"

	"repro/internal/adversary"
	"repro/internal/sim"
)

// goldenRun is what one pinned consensus cell commits: the event-stream
// fingerprint plus the counts and outcome the paper's Table 2 reads.
// DigestTracer does not hash payload contents, so Bytes and the decision
// are what pin what the messages carried.
type goldenRun struct {
	digest    uint64
	events    int64
	messages  int64
	bytes     int64
	timeSteps sim.Time
	crashes   int
	decision  uint8
	maxRounds int
}

// runGolden executes one consensus run the way repro.Run assembles it
// (inputs from RandomInputs(n, seed), standard adversary) under a digest
// tracer. Extra tracers observe the same run.
func runGolden(t *testing.T, kind TransportKind, cfg sim.Config, extra ...sim.Tracer) goldenRun {
	t.Helper()
	inputs := RandomInputs(cfg.N, cfg.Seed)
	nodes, err := NewNodes(Params{N: cfg.N, F: cfg.F, Transport: kind}, inputs, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	adv, err := adversary.ByName(adversary.PresetStandard, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := sim.NewWorld(cfg, nodes, adv)
	if err != nil {
		t.Fatal(err)
	}
	dig := sim.NewDigestTracer()
	w.SetTracer(sim.Tee(append([]sim.Tracer{dig}, extra...)...))
	res, err := w.Run(Evaluator{Inputs: inputs})
	if err != nil {
		t.Fatalf("%s seed %d: %v", kind, cfg.Seed, err)
	}
	g := goldenRun{
		digest: dig.Sum(), events: dig.Events(),
		messages: res.Messages, bytes: res.Bytes, timeSteps: res.CompletedAt,
		crashes: res.Crashes,
	}
	for q, nd := range nodes {
		cn := nd.(*Node)
		if decided, v, _ := cn.Decided(); decided {
			g.decision = v
		}
		if w.Alive(sim.ProcID(q)) && cn.Rounds() > g.maxRounds {
			g.maxRounds = cn.Rounds()
		}
	}
	return g
}

// goldenCfg is the pinned cell shape: n=64, f=31 (the largest minority),
// d=δ=2, seed 1.
var goldenCfg = sim.Config{N: 64, F: 31, D: 2, Delta: 2, Seed: 1}

// TestConsensusGoldenDigests pins one run per Table-2 transport. Any
// change to scheduling, routing, delays, crash timing, message sizes or
// the decision moves a value here; a behaviour-preserving change (e.g. an
// allocation optimisation) must leave every value as committed.
func TestConsensusGoldenDigests(t *testing.T) {
	want := map[TransportKind]goldenRun{
		TransportDirect: {digest: 0x94d145d2ce3a85c4, events: 53392, messages: 26569, bytes: 1810125, timeSteps: 13, crashes: 2, decision: 0, maxRounds: 1},
		TransportEARS:   {digest: 0xb39c1f99db7dced6, events: 21762, messages: 9686, bytes: 4891662, timeSteps: 93, crashes: 9, decision: 0, maxRounds: 1},
		TransportSEARS:  {digest: 0x691a61eeec30ffe7, events: 119608, messages: 59943, bytes: 25629358, timeSteps: 25, crashes: 2, decision: 0, maxRounds: 1},
		TransportTEARS:  {digest: 0xe776bb788948f72e, events: 102563, messages: 51323, bytes: 4209636, timeSteps: 25, crashes: 2, decision: 0, maxRounds: 1},
	}
	for _, kind := range TransportKinds() {
		t.Run(string(kind), func(t *testing.T) {
			got := runGolden(t, kind, goldenCfg)
			if got.crashes == 0 {
				t.Fatalf("golden cell has no crashes; it must exercise the crash path")
			}
			if w, ok := want[kind]; !ok || got != w {
				t.Fatalf("%s golden run moved:\n got  %#v\n want %#v", kind, got, w)
			}
		})
	}
}
