package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/sim"
)

// sizes is the one table of input sizes. Every repetition of a workload is
// sized to about a second on a 2-vCPU box; the values are pinned so numbers
// stay comparable across machines and commits — do not retune them.
type sizes struct {
	D, Delta int // delay and speed bounds of every simulated run

	EarsN, EarsF int

	PushPullN int

	ConsensusN, ConsensusF, ConsensusRuns int

	FuzzRuns int

	// wire_roundtrip: WirePasses passes over a corpus of the first *Sends
	// messages of three unpooled runs.
	WirePasses                       int
	WireEarsN, WireEarsF             int
	WireEarsSends                    int
	WirePushPullN, WirePushPullSends int
	WireAverageN, WireAverageSends   int

	// BitsetN is the matrix dimension of the isolated bitset kernels (the
	// ears_clique universe) and BitsetIters their iteration count.
	BitsetN, BitsetIters int
}

var pinned = sizes{
	D: 2, Delta: 2,
	EarsN: 640, EarsF: 160,
	PushPullN:  50000,
	ConsensusN: 128, ConsensusF: 63, ConsensusRuns: 12,
	FuzzRuns:   1000,
	WirePasses: 5,
	WireEarsN:  256, WireEarsF: 64, WireEarsSends: 1024,
	WirePushPullN: 4096, WirePushPullSends: 16384,
	WireAverageN: 1024, WireAverageSends: 16384,
	BitsetN: 640, BitsetIters: 200,
}

// Orchestration constants: P fresh children per workload, at least K timed
// repetitions of identical work in each, after one untimed warm-up.
const (
	children   = 4
	minReps    = 3
	tracedReps = 2 // minimum repetitions of the traced and reference children
)

// counts is what one repetition did, in the paper's measures plus the
// benchmark's failure accounting.
type counts struct {
	Msgs  int64 `json:"msgs"`  // message complexity (or messages round-tripped)
	Steps int64 `json:"steps"` // time complexity in simulated steps (0 = not reported)
	Bytes int64 `json:"bytes"` // payload or frame bytes (0 = not reported)

	Attempted int64 `json:"attempted"` // operations: runs, scenarios or messages
	Failed    int64 `json:"failed"`
}

func (c *counts) add(o counts) {
	c.Msgs += o.Msgs
	c.Steps += o.Steps
	c.Bytes += o.Bytes
	c.Attempted += o.Attempted
	c.Failed += o.Failed
}

// sameWork reports whether two repetitions did identical simulated work —
// the determinism contract every repetition and child is held to.
func (c counts) sameWork(o counts) bool {
	return c.Msgs == o.Msgs && c.Steps == o.Steps && c.Bytes == o.Bytes
}

// instance is one workload's generated input plus the two ways of running
// it: through the public entry point, and rebuilt from the layers' public
// functions with a span around each call.
type instance interface {
	// run executes one repetition. verify asks for the expensive output
	// checks (the warm-up pass of wire_roundtrip compares whole payloads).
	run(verify bool) counts
	// traced executes the same repetition under rec and returns, besides the
	// counts, the layer counters that no span carries.
	traced(rec *recorder) (counts, layerStats)
}

// workload is one row of the benchmark's workload table.
type workload struct {
	name string
	why  string
	ops  string // what one attempted operation is
	// probes marks the workload that also hosts the two kernel-side probes
	// (sharded speed-up, telemetry recorder overhead).
	probes bool
	build  func(sz sizes, seed int64) (instance, error)
}

var workloads = []workload{
	{
		name: "ears_clique",
		why:  "ears, n=640, f=160: every message carries an n x n informed matrix, so bitset work in core steps and in the payload-size callback is nearly all of the run",
		ops:  "runs",
		build: func(sz sizes, seed int64) (instance, error) {
			return &gossipInstance{spec: repro.GossipSpec{
				Protocol: repro.ProtoEARS, N: sz.EarsN, F: sz.EarsF,
				D: sz.D, Delta: sz.Delta, Adversary: repro.AdversaryStandard, Seed: seed,
			}}, nil
		},
	},
	{
		name:   "pushpull_kernel",
		why:    "push-pull, n=50000, lean: O(1)-state nodes and 1-byte payloads, so the sim kernel dominates and bitset is idle",
		ops:    "runs",
		probes: true,
		build: func(sz sizes, seed int64) (instance, error) {
			return &gossipInstance{lean: true, spec: repro.GossipSpec{
				Protocol: repro.ProtoPushPull, N: sz.PushPullN,
				D: sz.D, Delta: sz.Delta, Adversary: repro.AdversaryStandard, Seed: seed,
			}}, nil
		},
	},
	{
		name: "consensus_tears",
		why:  "12 tears consensus runs, n=128, f=63: the same core and bitset code deliberately unpooled, allocation- and GC-bound",
		ops:  "runs",
		build: func(sz sizes, seed int64) (instance, error) {
			c := &consensusInstance{}
			for i := 0; i < sz.ConsensusRuns; i++ {
				c.specs = append(c.specs, repro.ConsensusSpec{
					Transport: repro.TransportTEARS, N: sz.ConsensusN, F: sz.ConsensusF,
					D: sz.D, Delta: sz.Delta, Adversary: repro.AdversaryStandard, Seed: seed + int64(i),
				})
			}
			return c, nil
		},
	},
	{
		name: "fuzz_mixed",
		why:  "1000 fuzz scenarios over all protocols, topologies and adversaries: per-run construction and the scenario oracles dominate",
		ops:  "scenarios",
		build: func(sz sizes, seed int64) (instance, error) {
			return &fuzzInstance{spec: repro.FuzzSpec{Runs: sz.FuzzRuns, Seed: seed}}, nil
		},
	},
	{
		name:  "wire_roundtrip",
		why:   "encode, frame, unframe and decode a captured message corpus: the cluster data plane's CPU cost per message, no socket or timer",
		ops:   "messages",
		build: buildWire,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// complain reports a failed operation on standard error; the operation is
// counted, the repetition goes on.
func complain(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
}

// ---- gossip (ears_clique, pushpull_kernel) ----

type gossipInstance struct {
	spec repro.GossipSpec
	lean bool
	// tracer, when set, observes the run on both paths (the unit test
	// compares their event digests).
	tracer sim.Tracer
}

func (g *gossipInstance) options(extra ...repro.Option) []repro.Option {
	var opts []repro.Option
	if g.lean {
		opts = append(opts, repro.WithLean())
	}
	if g.tracer != nil {
		opts = append(opts, repro.WithTracer(g.tracer))
	}
	return append(opts, extra...)
}

func (g *gossipInstance) run(bool) counts { return g.runWith() }

func (g *gossipInstance) runWith(extra ...repro.Option) counts {
	res, err := repro.Run(context.Background(), g.spec, g.options(extra...)...)
	c := counts{Attempted: 1}
	if res != nil && res.Gossip != nil {
		c.Msgs, c.Steps = res.Gossip.Messages, res.Gossip.TimeSteps
		if res.Gossip.BytesKnown {
			c.Bytes = res.Gossip.Bytes
		}
	}
	if err != nil || res.Gossip == nil || !res.Gossip.Completed {
		complain("%s n=%d seed=%d failed: %v", g.spec.Protocol, g.spec.N, g.spec.Seed, err)
		c.Failed = 1
	}
	return c
}

// ---- consensus (consensus_tears) ----

type consensusInstance struct {
	specs  []repro.ConsensusSpec
	tracer sim.Tracer
}

func (c *consensusInstance) run(bool) counts {
	var total counts
	var opts []repro.Option
	if c.tracer != nil {
		opts = append(opts, repro.WithTracer(c.tracer))
	}
	for _, spec := range c.specs {
		res, err := repro.Run(context.Background(), spec, opts...)
		one := counts{Attempted: 1}
		if res != nil && res.Consensus != nil {
			one.Msgs, one.Steps = res.Consensus.Messages, res.Consensus.TimeSteps
			if res.Consensus.BytesKnown {
				one.Bytes = res.Consensus.Bytes
			}
		}
		if err != nil || res.Consensus == nil || !res.Consensus.Completed {
			complain("consensus n=%d seed=%d failed: %v", spec.N, spec.Seed, err)
			one.Failed = 1
		}
		total.add(one)
	}
	return total
}

// ---- fuzz (fuzz_mixed) ----

type fuzzInstance struct {
	spec repro.FuzzSpec
}

func (f *fuzzInstance) run(bool) counts {
	c := counts{Attempted: int64(f.spec.Runs)}
	res, err := repro.Run(context.Background(), f.spec, repro.WithWorkers(1))
	if err != nil || res.Fuzz == nil {
		complain("fuzz seed=%d failed: %v", f.spec.Seed, err)
		c.Failed = c.Attempted
		return c
	}
	c.Msgs = res.Fuzz.Messages
	c.Failed = int64(len(res.Fuzz.Reports) + res.Fuzz.Skipped)
	for _, r := range res.Fuzz.Reports {
		complain("fuzz seed=%d scenario %d violates %s", f.spec.Seed, r.Index, r.Violations[0].Oracle)
	}
	return c
}

// ---- wire (wire_roundtrip) ----

// wireClass separates the two frame sizes the corpus holds: ears payloads
// carry an n×n informed matrix, push-pull and averaging payloads a few bytes.
type wireClass int

const (
	wireMatrix wireClass = iota
	wireSmall
	wireClasses
)

func (c wireClass) String() string { return [...]string{"matrix", "small"}[c] }

type wireInstance struct {
	passes int
	corpus []sim.Message
	class  []wireClass // class[i] of corpus[i]
}

// capture retains the first limit sends of a run. The runs it observes are
// unpooled, so a retained payload stays valid after the send.
type capture struct {
	sim.NopTracer
	limit int
	msgs  []sim.Message
}

func (c *capture) OnSend(m sim.Message) {
	if len(c.msgs) < c.limit {
		c.msgs = append(c.msgs, m)
	}
}

func buildWire(sz sizes, seed int64) (instance, error) {
	w := &wireInstance{passes: sz.WirePasses}
	sources := []struct {
		spec  repro.GossipSpec
		sends int
		class wireClass
	}{
		{repro.GossipSpec{Protocol: repro.ProtoEARS, N: sz.WireEarsN, F: sz.WireEarsF}, sz.WireEarsSends, wireMatrix},
		{repro.GossipSpec{Protocol: repro.ProtoPushPull, N: sz.WirePushPullN}, sz.WirePushPullSends, wireSmall},
		{repro.GossipSpec{Protocol: repro.ProtoAverage, N: sz.WireAverageN}, sz.WireAverageSends, wireSmall},
	}
	for _, src := range sources {
		spec := src.spec
		spec.D, spec.Delta, spec.Seed = sz.D, sz.Delta, seed
		spec.Adversary = repro.AdversaryStandard
		spec.Tuning.NoPool = true
		c := &capture{limit: src.sends}
		res, err := repro.Run(context.Background(), spec, repro.WithTracer(c))
		if err != nil || !res.Gossip.Completed {
			return nil, fmt.Errorf("wire corpus: %s n=%d seed=%d: %v", spec.Protocol, spec.N, seed, err)
		}
		if len(c.msgs) != src.sends {
			return nil, fmt.Errorf("wire corpus: %s n=%d sent %d messages, need %d", spec.Protocol, spec.N, len(c.msgs), src.sends)
		}
		for _, m := range c.msgs {
			w.corpus = append(w.corpus, m)
			w.class = append(w.class, src.class)
		}
	}
	return w, nil
}

func (w *wireInstance) run(verify bool) counts { return w.roundTrips(verify, nil) }

// The four calls of one round trip, in order.
const (
	lapEncode = iota
	lapWrite
	lapRead
	lapDecode
	wireCalls
)

// wireLaps sums the time of each of the four calls.
type wireLaps [wireCalls]time.Duration

// roundTrips sends every corpus message through the codec, passes times.
// observe, when set (the traced run), is told each frame's class and size
// once it is written and returns where to add that message's four lap
// times; without it no clock is read.
func (w *wireInstance) roundTrips(verify bool, observe func(class wireClass, frame int) *wireLaps) counts {
	var c counts
	var body []byte
	var buf bytes.Buffer
	for pass := 0; pass < w.passes; pass++ {
		for i, m := range w.corpus {
			c.Attempted++
			c.Msgs++
			frame, err := roundTrip(m, &body, &buf, verify, w.class[i], observe)
			c.Bytes += int64(frame)
			if err != nil {
				if c.Failed == 0 {
					complain("wire round trip %d→%d: %v", m.From, m.To, err)
				}
				c.Failed++
			}
		}
	}
	return c
}

// roundTrip is AppendGossip → WriteFrame → ReadFrame → DecodeGossip for one
// message through reused buffers; it returns the frame's size.
func roundTrip(m sim.Message, body *[]byte, buf *bytes.Buffer, verify bool,
	class wireClass, observe func(wireClass, int) *wireLaps) (frame int, err error) {
	var t [wireCalls + 1]time.Time
	lap := func(i int) {
		if observe != nil {
			t[i] = time.Now()
		}
	}
	lap(0)
	if *body, err = cluster.AppendGossip((*body)[:0], m); err != nil {
		return 0, err
	}
	lap(1)
	buf.Reset()
	if err = cluster.WriteFrame(buf, cluster.KindGossip, *body); err != nil {
		return 0, err
	}
	lap(2)
	frame = buf.Len()
	kind, raw, err := cluster.ReadFrame(buf)
	if err != nil {
		return frame, err
	}
	lap(3)
	if kind != cluster.KindGossip {
		return frame, fmt.Errorf("frame kind %#x, want gossip", kind)
	}
	got, err := cluster.DecodeGossip(raw)
	if err != nil {
		return frame, err
	}
	lap(4)
	if observe != nil {
		laps := observe(class, frame)
		for i := range laps {
			laps[i] += t[i+1].Sub(t[i])
		}
	}
	return frame, compareWire(m, got, verify)
}

// compareWire checks a decoded message against the original: addressing
// always, the whole payload when deep is set.
func compareWire(want, got sim.Message, deep bool) error {
	if got.From != want.From || got.To != want.To || got.SentAt != want.SentAt {
		return fmt.Errorf("decoded header %d→%d@%d differs", got.From, got.To, got.SentAt)
	}
	if deep && !core.WirePayloadEquals(want.Payload, got.Payload) {
		return fmt.Errorf("decoded payload differs")
	}
	return nil
}
