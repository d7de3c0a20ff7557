// Package repro is a from-scratch Go reproduction of "On the Complexity of
// Asynchronous Gossip" (Georgiou, Gilbert, Guerraoui, Kowalski — PODC
// 2008): randomized gossip and consensus protocols for asynchronous,
// crash-prone, message-passing systems, together with the discrete-time
// adversarial simulator the paper's complexity measures are defined over.
//
// # The Run API
//
// Every simulation goes through one entry point:
//
//	out, err := repro.Run(ctx, spec, opts...)
//
// where spec is one of four typed specs and out is a RunResult with the
// matching field set:
//
//   - GossipSpec simulates one of the paper's gossip protocols — ears
//     (epidemic, §3), sears (spamming, §4), tears (two-hop majority
//     gossip, §5) — or a baseline (trivial all-to-all, synchronous
//     epidemics) under a configurable adversary, and reports the paper's
//     two complexity measures: time steps and point-to-point messages.
//     Two further protocol families ride the same spec: the single-rumor
//     spreading family (ProtoPush, ProtoPull, ProtoPushPull — an
//     informed bit and a send budget per process, the O(1)-state
//     workload the asynchronous push-pull literature analyzes), and
//     sum-weight averaging (ProtoAverage — push-sum over (sum, weight)
//     pairs until every estimate is within ProtocolParams.AvgEpsilon
//     (set through GossipSpec.Tuning) of the true mean; crash-free by
//     construction, since crashes destroy mass).
//
//   - ConsensusSpec simulates randomized binary consensus in the
//     Canetti–Rabin framework (§6) with get-core realized by all-to-all
//     communication (the Θ(n²) baseline) or by majority gossip (CR-ears,
//     CR-sears, CR-tears — the latter being the paper's headline: constant
//     time with strictly subquadratic message complexity).
//
//   - LowerBoundSpec executes the adaptive adversary from Theorem 1 (§2)
//     against a chosen protocol, witnessing the paper's dichotomy: either
//     Ω(n+f²) messages or Ω(f·(d+δ)) time.
//
//   - FuzzSpec drives the deterministic scenario-fuzzing engine
//     (internal/scenario, also exposed as cmd/fuzz): from one master seed
//     it derives an unbounded stream of random scenarios — protocol, n, f,
//     d, δ, a topology from the generated families, and an oblivious
//     adversary composed from random schedules, delay policies and
//     explicit crash plans — executes each through the kernel, and checks
//     every run against an invariant-oracle catalog: crash budget ≤ f,
//     delay clamp ∈ [1, d], no post-crash activity, schedule-gap bounds,
//     completion promises re-verified from raw node state, validity,
//     paper-derived message/time envelopes, and sampled pooled ≡ unpooled
//     and sharded ≡ serial event-stream equivalence. A violated scenario
//     is shrunk to a minimized repro and returned as a replayable
//     ScenarioReport; `cmd/fuzz -repro` re-runs a report file exactly.
//     With `-corpus DIR` a session is coverage-guided: a persistent,
//     content-addressed corpus of previously interesting scenarios
//     (repro.fuzz.corpus/v1) replays as a regression pass, part of the
//     budget mutates corpus entries toward the complexity-envelope
//     boundaries instead of sampling fresh, and runs with novel coverage
//     features or top-decile envelope tightness are admitted back — the
//     whole campaign, evolved corpus included, a pure function of
//     (master seed, input corpus).
//
// Functional options tune how a run executes — never what it computes:
//
//   - WithShards(s) splits the run into s deterministic superstep shards
//     (see "Sharded execution" below); output is bit-identical for every
//     shard count.
//   - WithWorkers(w) caps the goroutines used by sharded phases, RunMany
//     batches and fuzz sessions.
//   - WithTracer(t) tees an extra event observer into the run.
//   - WithTelemetry(rec) attaches a telemetry.Recorder for streaming,
//     mergeable metrics.
//   - WithLean() keeps per-process bookkeeping O(1) for large-n runs (the
//     Θ(n²) Rumors matrix is not materialized; everything else in the
//     result is unchanged).
//
// For ensembles, RunMany fans a slice of specs across a worker pool with
// per-item results and errors positionally identical to a serial loop; the
// engine behind it — and behind every experiment sweep and the cmd/bench
// artifact — is internal/runner, whose contract is that parallel execution
// is bit-identical to serial. DeriveSeed exposes its seed policy for
// callers building their own sweeps.
//
// Every run accepts a communication topology (GossipSpec.Topology,
// ConsensusSpec.Topology, the Topo* constants): the default is the
// paper's complete graph — reproducing the original model and its results
// exactly — while the generated families (ring, torus, random-regular,
// erdos-renyi, watts-strogatz, barabasi-albert) restrict every protocol to
// neighborhood communication over a seeded, connected, CSR-backed graph.
//
// # Sharded execution
//
// WithShards(s) partitions a single run's processes into s contiguous
// id-range shards and executes each time step as a superstep: shards drain
// inboxes and step their processes in parallel against a frozen snapshot,
// then a serial phase replays sends in canonical global order (restoring
// the exact shared-RNG delay draws, tracer callbacks and metric folds of
// the serial kernel), then shards enqueue routed messages in parallel.
// The contract is bit-identical equivalence: a sharded run produces the
// same result and the same event stream, event for event, as the serial
// kernel — pinned by golden digests, an equivalence test matrix, and a
// sharded ≡ serial fuzz oracle over random scenarios and shard counts.
// Sharding composes with snapshot pooling (each shard owns a pool
// partition) and with WithLean for memory-bounded large-n runs; the
// cmd/bench -xlarge tier runs both nightly, and the nightly -million
// tier pushes the combination to n = 10⁶ with push-pull — the O(1)
// per-process state makes a million processes an event-throughput
// problem rather than a memory problem.
//
// # Determinism contract
//
// A run is a pure function of its configuration and seed. Four layers
// uphold this, and every optimization must preserve it:
//
//   - The serial kernel (internal/sim) is single-goroutine per world, so
//     event order is total and reproducible.
//   - The sharded superstep engine replays all cross-shard effects in
//     canonical order on one goroutine, so any shard count reproduces the
//     serial event stream exactly.
//   - The worker pool (internal/runner) is bit-identical to serial
//     execution: results are index-addressed and aggregated in grid
//     order, never in completion order.
//   - Memory recycling (the snapshot pools and the mailbox arena behind
//     the hot path) consumes no randomness and touches no metric: pooled
//     and unpooled runs produce identical executions event for event,
//     which the determinism tests enforce. Pools are single-goroutine by
//     design — one per world, or one per shard in sharded runs — and
//     payloads are recycled only after the receiving process consumed them
//     (see the Releasable contract in internal/sim); custom tracers and
//     adversaries must therefore not retain message payloads beyond the
//     callback that delivered them.
//
// The committed BENCH_gossip.json baseline and `cmd/bench -compare` turn
// the contract into a CI gate: steps, messages and bytes must reproduce
// bit for bit against the baseline on every change.
//
// # Observability
//
// internal/telemetry instruments runs without perturbing them: streaming
// O(1)-per-event samplers (telemetry.Recorder — informed-count and
// in-flight curves, send-band and delivery-latency histograms, all exactly
// mergeable across runs and shards) and exporters (OpenMetrics text,
// Chrome trace-event JSON for Perfetto, an ASCII timeline) ride the same
// Tracer seam as custom tracers; attach one via WithTelemetry or
// WithTracer, or compose with sim.Tee. Everything is observation-only —
// digests, baselines and fuzz output are byte-identical with telemetry on
// or off — and with no tracer attached the kernel keeps its
// allocation-free fast path. cmd/bench -telemetry captures pprof profiles
// plus an instrumented sample run; cmd/fuzz streams progress, watches for
// stuck workers, and emits a repro.bench.fuzz/v3 artifact with per-oracle
// envelope-tightness percentiles and the coverage-guided campaign's
// corpus steering rates (-bench / -check).
//
// # Live cluster
//
// The protocols are genuine asynchronous message-passing algorithms, so
// beyond the simulator they run, on the same sim.Node code, in
// internal/cluster — a real networked deployment where every node owns a
// loopback TCP listener and protocol payloads travel as versioned binary
// envelopes (consensus stays simulator-only: the codec carries no
// consensus payloads). cmd/cluster
// replays a scenario spec (a bare spec, a fuzz corpus entry, or a fuzz
// report) over such a cluster, one OS process per node by default or
// -inproc for CI; nodes join a registry control plane, discover peers
// via heartbeats, and the driver detects quiescence by distributed
// credit counting over heartbeat counters. Finished runs are judged by a
// live-adapted subset of the fuzzer's oracle catalog (crash budget,
// validity and completion — the simulator's own judgments over the nodes'
// reports — message/time envelopes with wall-clock slack,
// off-edge, post-crash silence, credit balance) and distilled into a
// schema-versioned repro.bench.live/v1 artifact with real
// delivery-latency percentiles; -metrics serves each node's telemetry as
// an OpenMetrics scrape endpoint. See docs/ARCHITECTURE.md for how the
// two execution shapes relate.
//
// Deeper extension points (custom protocols, adversaries, tracers,
// graphs) are exposed through type aliases into the internal packages;
// see Protocol, Adversary, Tracer and Graph.
package repro
