package sim

import (
	"errors"
	"fmt"

	"repro/internal/topology"
)

// ErrTimeout is returned (wrapped) by Run when the world fails to go quiet
// within the step budget. Tests use errors.Is to detect it; protocols that
// satisfy the paper's quiescence property must never time out.
var ErrTimeout = errors.New("sim: world did not go quiet within MaxSteps")

// World is a single-threaded discrete-time simulation of the paper's model.
// It is intentionally not goroutine-per-process: adversarial scheduling,
// exact message counting and reproducibility all require a deterministic
// sequential kernel. (Goroutines and channels are used by the example
// applications that embed the library, not by the model itself.)
//
// Config.Shards > 1 swaps in the sharded superstep engine (shard.go): node
// Steps run on worker goroutines over per-shard mailboxes, while every
// order-sensitive operation replays serially in canonical order — output
// stays bit-identical to the serial kernel for every shard count.
type World struct {
	cfg     Config
	nodes   []Node
	adv     Adversary
	tracer  Tracer
	probe   func(View)
	box     mailbox      // undelivered messages, pooled in recycled blocks
	eng     *shardEngine // non-nil when Config.Shards selects supersteps
	alive   []bool
	nAlive  int
	now     Time
	metrics *Metrics

	schedBuf []ProcID
	crashBuf []ProcID
	inboxBuf []Message
	outbox   Outbox
}

var _ View = (*World)(nil)

// NewWorld creates a world over the given nodes and adversary. The nodes
// slice must have length cfg.N and node i must report ID i.
func NewWorld(cfg Config, nodes []Node, adv Adversary) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(nodes) != cfg.N {
		return nil, fmt.Errorf("sim: %d nodes for N = %d", len(nodes), cfg.N)
	}
	for i, nd := range nodes {
		if nd == nil {
			return nil, fmt.Errorf("sim: node %d is nil", i)
		}
		if int(nd.ID()) != i {
			return nil, fmt.Errorf("sim: node at index %d reports ID %d", i, nd.ID())
		}
	}
	if adv == nil {
		return nil, errors.New("sim: adversary is nil")
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = DefaultMaxSteps(cfg)
	}
	w := &World{
		cfg:     cfg,
		nodes:   nodes,
		adv:     adv,
		alive:   make([]bool, cfg.N),
		nAlive:  cfg.N,
		metrics: newMetrics(cfg.N),
	}
	if shards := EffectiveShards(cfg.N, cfg.Shards); shards > 1 {
		w.eng = newShardEngine(w, shards, cfg.ShardWorkers)
	} else {
		w.box.initRange(0, cfg.N)
	}
	for i := range w.alive {
		w.alive[i] = true
	}
	return w, nil
}

// SetTracer installs an event tracer (nil disables tracing).
func (w *World) SetTracer(t Tracer) { w.tracer = t }

// SetProbe installs a function invoked with the world view at the end of
// every time step (nil disables). Probes let experiments observe protocol
// milestones (e.g. the stage structure of the ears analysis) without
// touching the protocols; they must not mutate anything.
func (w *World) SetProbe(probe func(View)) { w.probe = probe }

// N implements View.
func (w *World) N() int { return w.cfg.N }

// Now implements View.
func (w *World) Now() Time { return w.now }

// Alive implements View.
func (w *World) Alive(p ProcID) bool {
	return int(p) >= 0 && int(p) < w.cfg.N && w.alive[p]
}

// AliveCount implements View.
func (w *World) AliveCount() int { return w.nAlive }

// Node implements View.
func (w *World) Node(p ProcID) Node { return w.nodes[p] }

// MessagesSent implements View.
func (w *World) MessagesSent() int64 { return w.metrics.Messages }

// StepsTaken implements View.
func (w *World) StepsTaken(p ProcID) int64 {
	if int(p) < 0 || int(p) >= w.cfg.N {
		return 0
	}
	return w.metrics.Steps[p]
}

// Graph implements View: the communication topology (nil = complete).
func (w *World) Graph() topology.Graph { return w.cfg.Graph }

// Metrics exposes the accumulated metrics (read-only use).
func (w *World) Metrics() *Metrics { return w.metrics }

// ArenaStats snapshots the mailbox block arena — telemetry for memory
// pressure and recycling efficacy (observation-only, cheap). Sharded
// worlds aggregate their per-shard arenas.
func (w *World) ArenaStats() ArenaStats {
	if w.eng != nil {
		return w.eng.stats()
	}
	return w.box.stats()
}

// Config returns the world configuration.
func (w *World) Config() Config { return w.cfg }

// Run executes the simulation until the world goes quiet (every live node
// quiescent and no message in flight to a live process) or MaxSteps
// elapses, then judges the run with the evaluator. A nil evaluator accepts
// unconditionally with CompletedAt = quiesce time. On return the world's
// free mailbox blocks go to later worlds (mailbox.go).
func (w *World) Run(eval Evaluator) (Result, error) {
	var res Result
	quiet := false
	if w.eng != nil {
		w.eng.start()
		defer w.eng.stop()
	} else {
		defer w.box.handBack()
	}
	for w.now = 0; w.now < w.cfg.MaxSteps; w.now++ {
		w.stepTime()
		if w.isQuiet() {
			quiet = true
			break
		}
	}
	res.QuiesceAt = w.now
	res.LastSendAt = w.metrics.LastSendAt
	res.Messages = w.metrics.Messages
	res.Bytes = w.metrics.Bytes
	res.BytesKnown = w.metrics.SizedMessages == w.metrics.Messages
	res.Crashes = w.metrics.Crashes
	res.OffEdgeDrops = w.metrics.OffEdgeDrops
	res.OutOfRangeDrops = w.metrics.OutOfRangeDrops
	if !quiet {
		res.TimedOut = true
		res.Detail = "timeout"
		// The run burned its whole horizon: record it, rather than zeros,
		// so telemetry and envelope-tightness stats see the real cost.
		res.CompletedAt = res.QuiesceAt
		res.TimeComplexity = res.QuiesceAt
		if res.LastSendAt > res.TimeComplexity {
			res.TimeComplexity = res.LastSendAt
		}
		return res, fmt.Errorf("%w (MaxSteps = %d, messages = %d)", ErrTimeout, w.cfg.MaxSteps, res.Messages)
	}
	out := Outcome{OK: true, CompletedAt: w.now}
	if eval != nil {
		out = eval.Evaluate(w)
	}
	res.Completed = out.OK
	res.CompletedAt = out.CompletedAt
	res.Detail = out.Detail
	res.TimeComplexity = res.CompletedAt
	if res.LastSendAt > res.TimeComplexity {
		res.TimeComplexity = res.LastSendAt
	}
	if !out.OK {
		return res, fmt.Errorf("sim: run went quiet but evaluator rejected: %s", out.Detail)
	}
	return res, nil
}

// stepTime advances the world by one time step.
func (w *World) stepTime() {
	// 1. Crashes at the start of the step, subject to the budget F.
	w.crashBuf = w.adv.Crashes(w.now, w, w.crashBuf[:0])
	for _, p := range w.crashBuf {
		if !w.Alive(p) || w.metrics.Crashes >= w.cfg.F {
			continue
		}
		w.alive[p] = false
		w.nAlive--
		w.metrics.Crashes++
		if w.tracer != nil {
			w.tracer.OnCrash(p, w.now)
		}
	}

	// 2. Schedule, then the step body: the serial per-process loop, or one
	// sharded superstep over the same schedule. Either way the step's sends
	// reach their queues in one flush after its last process has stepped.
	w.schedBuf = w.adv.Schedule(w.now, w, w.schedBuf[:0])
	if w.eng != nil {
		w.eng.superstep(w.schedBuf)
	} else {
		for _, p := range w.schedBuf {
			if !w.Alive(p) {
				continue
			}
			w.stepProcess(p)
		}
		w.box.flush()
	}

	// 3. Experiment probe.
	if w.probe != nil {
		w.probe(w)
	}
}

// stepProcess runs one local step of live process p.
func (w *World) stepProcess(p ProcID) {
	inbox := w.drainReady(p)
	w.outbox.reset(p, w.now, w.cfg.N)
	w.nodes[p].Step(w.now, inbox, &w.outbox)
	w.metrics.Steps[p]++
	w.metrics.OutOfRangeDrops += w.outbox.oorDrops
	for i := range w.outbox.msgs {
		m := w.outbox.msgs[i]
		if w.cfg.Graph != nil && !w.cfg.Graph.HasEdge(int(m.From), int(m.To)) {
			// Off-edge send: the topology has no link to carry it. Dropped
			// sends do not count as messages — they never reach the wire —
			// but are tallied so experiments can detect topology-unaware
			// protocols (e.g. sync-deterministic's circulant offsets).
			w.metrics.OffEdgeDrops++
			continue
		}
		delay := w.adv.Delay(w.now, m.From, m.To)
		if delay < 1 {
			delay = 1
		}
		if delay > w.cfg.D {
			delay = w.cfg.D
		}
		m.ReadyAt = w.now + delay
		w.metrics.Messages++
		w.metrics.SentBy[m.From]++
		w.metrics.LastSendAt = w.now
		if s, ok := m.Payload.(Sizer); ok {
			w.metrics.Bytes += int64(s.SizeBytes())
			w.metrics.SizedMessages++
		}
		if obs, ok := w.adv.(SendObserver); ok {
			obs.ObserveSend(m)
		}
		if w.tracer != nil {
			w.tracer.OnSend(m)
		}
		// A pooled payload is retained once per enqueued message and
		// released in releaseInbox once the delivery is consumed.
		if rel, ok := m.Payload.(Releasable); ok {
			rel.Retain()
		}
		w.box.enqueue(m)
	}
	if w.tracer != nil {
		w.tracer.OnStep(p, w.now)
	}
	w.releaseInbox(inbox)
}

// drainReady removes and returns the messages pending for p whose ReadyAt
// has arrived. The returned slice is valid until the next call.
func (w *World) drainReady(p ProcID) []Message {
	w.inboxBuf = w.box.drain(int(p), w.now, w.inboxBuf[:0])
	delivered := w.inboxBuf
	if len(delivered) == 0 {
		return nil
	}
	w.metrics.DeliveredTo[p] += int64(len(delivered))
	if w.tracer != nil {
		for _, m := range delivered {
			w.tracer.OnDeliver(m, w.now)
		}
	}
	return delivered
}

// releaseInbox hands consumed deliveries back to their payload pools (see
// Releasable) and clears the inbox slack so dead payloads are collectable.
func (w *World) releaseInbox(inbox []Message) {
	for i := range inbox {
		if rel, ok := inbox[i].Payload.(Releasable); ok {
			rel.Release()
		}
		inbox[i].Payload = nil
	}
}

// isQuiet reports whether no live node will act again: every live node is
// quiescent and no message is in flight to a live process. Messages pending
// for crashed processes are ignored — they will never be delivered.
func (w *World) isQuiet() bool {
	if w.eng != nil {
		return w.eng.isQuiet()
	}
	for p := 0; p < w.cfg.N; p++ {
		if !w.alive[p] {
			continue
		}
		if w.box.count(p) > 0 {
			return false
		}
		if !w.nodes[p].Quiescent() {
			return false
		}
	}
	return true
}
