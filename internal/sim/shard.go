package sim

import (
	"fmt"
	"runtime"
	"sync"
)

// Sharded superstep execution.
//
// A world with Config.Shards > 1 partitions its processes into contiguous
// id ranges and executes every time step as a deterministic superstep:
//
//	phase 0 (serial)   crashes and the adversary's schedule, exactly as in
//	                   the serial kernel, then a stable partition of the
//	                   scheduled processes by owning shard.
//	phase 1 (parallel) each shard drains its local mailbox and runs the
//	                   Step of every scheduled process it owns, in schedule
//	                   order, against the frozen end-of-previous-step
//	                   snapshot. Deliveries and sends are recorded in flat
//	                   per-shard buffers; nothing global is touched — no
//	                   tracer callbacks, no delay draws, no refcounts.
//	phase 2 (serial)   a canonical-order replay over the global schedule:
//	                   for every scheduled process, its recorded deliveries
//	                   and sends are walked in the exact order the serial
//	                   kernel would have produced, performing the delay
//	                   draws (restoring the adversary's global draw order),
//	                   metrics, tracer callbacks, payload retain/release,
//	                   and staging each send, in canonical order, in its
//	                   destination shard's mailbox.
//	phase 3 (parallel) each shard flushes its staged messages into its
//	                   local queues.
//
// The contract is bit-identical output: the same schedule restricted to a
// shard is the serial execution order of that shard's processes, messages
// sent at step t are deliverable at t+1 or later (delay ≥ 1) so intra-step
// Steps are independent, and every operation with global order sensitivity
// (adversary delay draws, tracer events, metric folds, pool refcounts)
// happens in the serial replay. The equivalence tests and the fuzzer's
// sharded≡serial oracle pin this event for event.
//
// Phase barriers give the necessary happens-before edges: a shard goroutine
// only reads foreign state (copy-on-write snapshot words, write-once value
// slots) that was last written before the previous barrier.

// ShardRange returns the id range [lo, hi) owned by shard s when n
// processes are split into the given number of shards. Ranges are
// contiguous, cover 0..n-1, and differ in size by at most one.
func ShardRange(n, shards, s int) (lo, hi int) {
	return s * n / shards, (s + 1) * n / shards
}

// ShardOf returns the shard owning process p under ShardRange's partition.
func ShardOf(n, shards int, p ProcID) int {
	return int(((int64(p)+1)*int64(shards) - 1) / int64(n))
}

// EffectiveShards resolves a configured shard count for n processes:
// values below 2 select the serial kernel, and a count above n is clamped
// so no shard is empty. core.NewNodes applies the same resolution to its
// per-shard pool partition, keeping pool ownership aligned with the
// kernel's ranges.
func EffectiveShards(n, shards int) int {
	if shards < 2 {
		return 1
	}
	if shards > n {
		return n
	}
	return shards
}

// procRec is the phase-1 record of one scheduled process: index segments
// into the owning shard's flat delivered/sent buffers.
type procRec struct {
	delivLo, delivHi int32
	sentLo, sentHi   int32
	oorDrops         int64 // out-of-range drops from this Step's outbox
}

// shardRun is the per-shard state of a sharded world.
type shardRun struct {
	lo, hi int     // owned id range [lo, hi)
	box    mailbox // local mailbox, sized to the range

	sched     []ProcID  // scheduled procs owned by this shard, in order
	recs      []procRec // one record per entry of sched
	delivered []Message // flat delivery buffer (segments per record)
	sent      []Message // flat send buffer (segments per record)
	cursor    int       // phase-2 replay cursor into recs
	outbox    Outbox    // per-shard outbox, reused across steps
}

// shardEngine drives the superstep phases over a fixed worker pool.
type shardEngine struct {
	w      *World
	shards int
	sh     []shardRun

	workers int
	jobs    chan int
	phaseFn func(s int)
	wg      sync.WaitGroup
	started bool

	panicMu  sync.Mutex
	panicked any
}

// newShardEngine builds the engine for an already-validated world config.
func newShardEngine(w *World, shards, workers int) *shardEngine {
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > shards {
		workers = shards
	}
	e := &shardEngine{w: w, shards: shards, workers: workers}
	e.sh = make([]shardRun, shards)
	for s := range e.sh {
		r := &e.sh[s]
		r.lo, r.hi = ShardRange(w.cfg.N, shards, s)
		r.box.initRange(r.lo, r.hi)
	}
	return e
}

// start launches the worker pool (idempotent).
func (e *shardEngine) start() {
	if e.started {
		return
	}
	e.started = true
	e.jobs = make(chan int)
	for i := 0; i < e.workers; i++ {
		go func() {
			for s := range e.jobs {
				e.runShard(s)
			}
		}()
	}
}

// stop tears the worker pool down and hands free blocks back (idempotent).
func (e *shardEngine) stop() {
	if !e.started {
		return
	}
	e.started = false
	close(e.jobs)
	for s := range e.sh {
		e.sh[s].box.handBack()
	}
}

// runShard executes the current phase body for one shard, capturing panics
// so they re-surface on the world's goroutine (where runner.Map and test
// harnesses can recover them) instead of crashing the process.
func (e *shardEngine) runShard(s int) {
	defer func() {
		if p := recover(); p != nil {
			e.panicMu.Lock()
			if e.panicked == nil {
				e.panicked = p
			}
			e.panicMu.Unlock()
		}
		e.wg.Done()
	}()
	e.phaseFn(s)
}

// dispatch runs f(s) for every shard on the worker pool and waits for the
// barrier. The channel send publishes phaseFn to the workers.
func (e *shardEngine) dispatch(f func(s int)) {
	e.phaseFn = f
	e.wg.Add(e.shards)
	for s := 0; s < e.shards; s++ {
		e.jobs <- s
	}
	e.wg.Wait()
	if p := e.panicked; p != nil {
		e.panicked = nil
		panic(p)
	}
}

// superstep executes one sharded time step over the already-drawn schedule
// (phase 0 — crashes and the schedule itself — ran in World.stepTime).
func (e *shardEngine) superstep(sched []ProcID) {
	w := e.w
	// Stable partition: each shard sees its processes in schedule order,
	// with dead processes dropped here so phases 1 and 2 walk identical
	// per-shard sequences.
	for s := range e.sh {
		e.sh[s].sched = e.sh[s].sched[:0]
	}
	for _, p := range sched {
		if !w.Alive(p) {
			continue
		}
		s := ShardOf(w.cfg.N, e.shards, p)
		e.sh[s].sched = append(e.sh[s].sched, p)
	}

	e.dispatch(e.phase1)
	e.replay(sched)
	e.dispatch(e.phase3)
}

// phase1 runs the local compute of one shard: drain, Step, record.
func (e *shardEngine) phase1(s int) {
	r := &e.sh[s]
	w := e.w
	now := w.now
	r.recs = r.recs[:0]
	r.delivered = r.delivered[:0]
	r.sent = r.sent[:0]
	for _, p := range r.sched {
		dLo := len(r.delivered)
		r.delivered = r.box.drain(int(p), now, r.delivered)
		dHi := len(r.delivered)
		if dHi > dLo {
			// Per-process metric slots are owned by p's shard; the serial
			// fold order of scalar metrics is restored in the replay.
			w.metrics.DeliveredTo[p] += int64(dHi - dLo)
		}
		r.outbox.reset(p, now, w.cfg.N)
		var inbox []Message
		if dHi > dLo {
			inbox = r.delivered[dLo:dHi]
		}
		w.nodes[p].Step(now, inbox, &r.outbox)
		w.metrics.Steps[p]++
		sLo := len(r.sent)
		r.sent = append(r.sent, r.outbox.msgs...)
		r.recs = append(r.recs, procRec{
			delivLo: int32(dLo), delivHi: int32(dHi),
			sentLo: int32(sLo), sentHi: int32(len(r.sent)),
			oorDrops: r.outbox.oorDrops,
		})
	}
}

// replay is phase 2: the serial canonical-order walk over the global
// schedule. It performs exactly the work the serial kernel interleaves
// with node Steps, in exactly the serial order: per scheduled process, the
// OnDeliver events of its consumed inbox, then per sent message the
// off-edge filter, the adversary delay draw, metrics, ObserveSend, OnSend
// and the payload retain, then OnStep, then the inbox releases.
func (e *shardEngine) replay(sched []ProcID) {
	w := e.w
	n, shards := w.cfg.N, e.shards
	for s := range e.sh {
		e.sh[s].cursor = 0
	}
	obs, observing := w.adv.(SendObserver)
	for _, p := range sched {
		if !w.Alive(p) {
			continue
		}
		r := &e.sh[ShardOf(n, shards, p)]
		rec := r.recs[r.cursor]
		r.cursor++
		w.metrics.OutOfRangeDrops += rec.oorDrops
		if w.tracer != nil {
			for _, m := range r.delivered[rec.delivLo:rec.delivHi] {
				w.tracer.OnDeliver(m, w.now)
			}
		}
		for i := rec.sentLo; i < rec.sentHi; i++ {
			m := r.sent[i]
			if w.cfg.Graph != nil && !w.cfg.Graph.HasEdge(int(m.From), int(m.To)) {
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
			if sz, ok := m.Payload.(Sizer); ok {
				w.metrics.Bytes += int64(sz.SizeBytes())
				w.metrics.SizedMessages++
			}
			if observing {
				obs.ObserveSend(m)
			}
			if w.tracer != nil {
				w.tracer.OnSend(m)
			}
			if rel, ok := m.Payload.(Releasable); ok {
				rel.Retain()
			}
			e.sh[ShardOf(n, shards, m.To)].box.enqueue(m)
		}
		if w.tracer != nil {
			w.tracer.OnStep(p, w.now)
		}
		// Releases are deferred from phase 1 to here: a consumed payload may
		// belong to another shard's pool, and refcounts plus pool free lists
		// are single-goroutine. Release order never affects behavior (the
		// pooled ≡ unpooled tests pin that pooling is invisible).
		for i := rec.delivLo; i < rec.delivHi; i++ {
			if rel, ok := r.delivered[i].Payload.(Releasable); ok {
				rel.Release()
			}
			r.delivered[i].Payload = nil
		}
	}
}

// phase3 lets each shard flush the messages the replay staged in its
// mailbox — staged in canonical send order, which preserves
// per-destination FIFO order exactly — and clears the step's send buffer
// so dead payload references do not pin snapshot storage.
func (e *shardEngine) phase3(s int) {
	r := &e.sh[s]
	r.box.flush()
	clear(r.sent)
	r.sent = r.sent[:0]
}

// isQuiet mirrors World.isQuiet over the per-shard mailboxes.
func (e *shardEngine) isQuiet() bool {
	w := e.w
	for s := range e.sh {
		r := &e.sh[s]
		for p := r.lo; p < r.hi; p++ {
			if !w.alive[p] {
				continue
			}
			if r.box.count(p) > 0 {
				return false
			}
			if !w.nodes[p].Quiescent() {
				return false
			}
		}
	}
	return true
}

// stats aggregates the per-shard mailbox arenas. Peak pending is summed
// across shards: each shard's high-water mark is reached independently,
// so the sum is an upper bound on the true global peak.
func (e *shardEngine) stats() ArenaStats {
	var out ArenaStats
	for s := range e.sh {
		st := e.sh[s].box.stats()
		out.BlocksAllocated += st.BlocksAllocated
		out.PendingMessages += st.PendingMessages
		out.PeakPendingMessages += st.PeakPendingMessages
	}
	return out
}

// validateShardConfig checks the sharding fields of a Config.
func validateShardConfig(c Config) error {
	if c.Shards < 0 {
		return fmt.Errorf("sim: Shards = %d, must be >= 0", c.Shards)
	}
	if c.ShardWorkers < 0 {
		return fmt.Errorf("sim: ShardWorkers = %d, must be >= 0", c.ShardWorkers)
	}
	return nil
}
