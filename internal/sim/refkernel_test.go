package sim_test

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// refKernel is a reference implementation of the model in types.go,
// written from the doc comments of Config, Adversary, Tracer, Metrics and
// Result rather than from world.go. It is deliberately naive: one plain
// []Message FIFO per destination, no arena, no deferred flush, no shards,
// no payload pooling (the differential builds its nodes with NoPool). The
// differential tests run it next to World and demand identical event
// streams, results and per-process counts, so a kernel optimisation that
// moves, loses, duplicates or reorders a message is caught even when every
// pooled, sharded and serial twin of World moves together.
type refKernel struct {
	cfg    sim.Config
	nodes  []sim.Node
	adv    sim.Adversary
	tracer sim.Tracer

	now     sim.Time
	alive   []bool
	nAlive  int
	queues  [][]sim.Message // per-destination FIFO, in send order
	metrics sim.Metrics
}

var _ sim.View = (*refKernel)(nil)

func newRefKernel(cfg sim.Config, nodes []sim.Node, adv sim.Adversary, tracer sim.Tracer) *refKernel {
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = sim.DefaultMaxSteps(cfg)
	}
	k := &refKernel{
		cfg: cfg, nodes: nodes, adv: adv, tracer: tracer,
		alive:  make([]bool, cfg.N),
		nAlive: cfg.N,
		queues: make([][]sim.Message, cfg.N),
		metrics: sim.Metrics{
			SentBy:      make([]int64, cfg.N),
			DeliveredTo: make([]int64, cfg.N),
			Steps:       make([]int64, cfg.N),
			LastSendAt:  -1,
		},
	}
	for p := range k.alive {
		k.alive[p] = true
	}
	return k
}

func (k *refKernel) N() int                     { return k.cfg.N }
func (k *refKernel) Now() sim.Time              { return k.now }
func (k *refKernel) AliveCount() int            { return k.nAlive }
func (k *refKernel) Node(p sim.ProcID) sim.Node { return k.nodes[p] }
func (k *refKernel) MessagesSent() int64        { return k.metrics.Messages }
func (k *refKernel) Graph() topology.Graph      { return k.cfg.Graph }
func (k *refKernel) Alive(p sim.ProcID) bool {
	return p >= 0 && int(p) < k.cfg.N && k.alive[p]
}
func (k *refKernel) StepsTaken(p sim.ProcID) int64 {
	if p < 0 || int(p) >= k.cfg.N {
		return 0
	}
	return k.metrics.Steps[p]
}

// run executes time steps 0, 1, … until the world is quiet or MaxSteps
// elapse, then judges the run as Result's field comments define.
func (k *refKernel) run(eval sim.Evaluator) (sim.Result, error) {
	quiet := false
	for k.now = 0; k.now < k.cfg.MaxSteps; k.now++ {
		k.step()
		if quiet = k.quiet(); quiet {
			break
		}
	}
	m := &k.metrics
	res := sim.Result{
		QuiesceAt: k.now, LastSendAt: m.LastSendAt,
		Messages: m.Messages, Bytes: m.Bytes, BytesKnown: m.SizedMessages == m.Messages,
		Crashes: m.Crashes, OffEdgeDrops: m.OffEdgeDrops, OutOfRangeDrops: m.OutOfRangeDrops,
	}
	var err error
	if !quiet {
		res.TimedOut, res.Detail = true, "timeout"
		res.CompletedAt = k.now
		err = fmt.Errorf("timeout")
	} else {
		out := sim.Outcome{OK: true, CompletedAt: k.now}
		if eval != nil {
			out = eval.Evaluate(k)
		}
		res.Completed, res.CompletedAt, res.Detail = out.OK, out.CompletedAt, out.Detail
		if !out.OK {
			err = fmt.Errorf("rejected: %s", out.Detail)
		}
	}
	res.TimeComplexity = res.CompletedAt
	if res.LastSendAt > res.TimeComplexity {
		res.TimeComplexity = res.LastSendAt
	}
	return res, err
}

// step is one time step: crashes within the budget F, then every
// scheduled live process in schedule order receives its ready messages,
// computes and sends.
func (k *refKernel) step() {
	for _, p := range k.adv.Crashes(k.now, k, nil) {
		if !k.Alive(p) || k.metrics.Crashes >= k.cfg.F {
			continue
		}
		k.alive[p] = false
		k.nAlive--
		k.metrics.Crashes++
		if k.tracer != nil {
			k.tracer.OnCrash(p, k.now)
		}
	}
	for _, p := range k.adv.Schedule(k.now, k, nil) {
		if k.Alive(p) {
			k.stepProcess(p)
		}
	}
}

func (k *refKernel) stepProcess(p sim.ProcID) {
	var inbox, kept []sim.Message
	for _, m := range k.queues[p] {
		if m.ReadyAt <= k.now {
			inbox = append(inbox, m)
		} else {
			kept = append(kept, m)
		}
	}
	k.queues[p] = kept
	k.metrics.DeliveredTo[p] += int64(len(inbox))
	if k.tracer != nil {
		for _, m := range inbox {
			k.tracer.OnDeliver(m, k.now)
		}
	}
	out := sim.NewOutbox(p, k.now, k.cfg.N)
	k.nodes[p].Step(k.now, inbox, out)
	k.metrics.Steps[p]++
	k.metrics.OutOfRangeDrops += out.OutOfRangeDrops()
	for _, m := range out.Messages() {
		if k.cfg.Graph != nil && !k.cfg.Graph.HasEdge(int(m.From), int(m.To)) {
			k.metrics.OffEdgeDrops++
			continue
		}
		delay := k.adv.Delay(k.now, m.From, m.To) // clamped to [1, D]
		delay = max(1, min(delay, k.cfg.D))
		m.ReadyAt = k.now + delay
		k.metrics.Messages++
		k.metrics.SentBy[m.From]++
		k.metrics.LastSendAt = k.now
		if s, ok := m.Payload.(sim.Sizer); ok {
			k.metrics.Bytes += int64(s.SizeBytes())
			k.metrics.SizedMessages++
		}
		if obs, ok := k.adv.(sim.SendObserver); ok {
			obs.ObserveSend(m)
		}
		if k.tracer != nil {
			k.tracer.OnSend(m)
		}
		k.queues[m.To] = append(k.queues[m.To], m)
	}
	if k.tracer != nil {
		k.tracer.OnStep(p, k.now)
	}
}

// quiet: every live node quiescent and nothing in flight to a live node.
func (k *refKernel) quiet() bool {
	for p := range k.nodes {
		if k.alive[p] && (len(k.queues[p]) > 0 || !k.nodes[p].Quiescent()) {
			return false
		}
	}
	return true
}
