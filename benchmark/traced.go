package main

import (
	"time"

	"repro"
	"repro/internal/adversary"
	"repro/internal/bitset"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// rootSpan names the root span of a traced repetition.
const rootSpan = "repro.run"

// layerStats are the per-layer counters of one traced repetition that no
// span carries.
type layerStats struct {
	nodeSteps, delayCalls  int64
	poolGets, poolReuses   int64
	arenaPeak, arenaBlocks int64 // the largest world of the repetition
	twinRuns               int64
	matrixMsgs             int64 // messages that carried an informed matrix (ears)
	wireMsgs, wireBytes    [wireClasses]int64
}

// tracedWorld is the part every simulated run shares, as runGossipSpec and
// runConsensusSpec order it: adversary, world, run — each call under a span,
// with the kernel handed decorated nodes, adversary and evaluator. layer
// names the package that owns the nodes ("core" or "consensus").
func tracedWorld(rec *recorder, layer string, nodes []sim.Node, cfg sim.Config, preset string,
	eval sim.Evaluator, tracer sim.Tracer, st *layerStats) (*sim.World, sim.Result, error) {
	id := rec.begin("adversary.build")
	adv, err := adversary.ByName(preset, cfg)
	rec.end(id)
	if err != nil {
		return nil, sim.Result{}, err
	}
	clock := &stepClock{}
	timedAdv := &timedAdversary{inner: adv}

	id = rec.begin("sim.new_world")
	w, err := sim.NewWorld(cfg, wrapNodes(nodes, clock), timedAdv)
	rec.end(id)
	if err != nil {
		return nil, sim.Result{}, err
	}
	if tracer != nil {
		w.SetTracer(tracer)
	}

	id = rec.begin("sim.run")
	res, runErr := w.Run(&timedEvaluator{inner: eval, nodes: nodes, rec: rec, name: layer + ".evaluate"})
	steps := w.Metrics().TotalSteps()
	rec.aggregate(layer+".step", clock.estimate(steps), steps)
	rec.aggregate("adversary.schedule", timedAdv.schedule, timedAdv.timeSteps)
	rec.aggregate("adversary.crashes", timedAdv.crashes, timedAdv.timeSteps)
	rec.end(id)

	st.nodeSteps += steps
	st.delayCalls += timedAdv.delayCalls
	arena := w.ArenaStats()
	st.arenaPeak = max(st.arenaPeak, arena.PeakPendingMessages)
	st.arenaBlocks = max(st.arenaBlocks, int64(arena.BlocksAllocated))
	return w, res, runErr
}

// traced rebuilds runGossipSpec from the layers' public functions.
func (g *gossipInstance) traced(rec *recorder) (counts, layerStats) {
	var st layerStats
	c := counts{Attempted: 1, Failed: 1}
	spec := g.spec
	root := rec.beginRep(rootSpan)
	defer rec.end(root)

	proto, err := core.ByName(spec.Protocol)
	if err != nil {
		complain("traced %s: %v", spec.Protocol, err)
		return c, st
	}
	p := spec.Tuning
	p.N, p.F, p.Lean = spec.N, spec.F, g.lean
	evalParams := p.WithDefaults()
	// NewNodes would create this pool itself; handing it one changes nothing
	// but lets the benchmark read its counters afterwards.
	pool := core.NewPool(spec.N)
	p.Pool = pool
	id := rec.begin("core.new_nodes")
	nodes, err := core.NewNodes(proto, p, spec.Seed)
	rec.end(id)
	if err != nil {
		complain("traced %s: %v", spec.Protocol, err)
		return c, st
	}
	cfg := sim.Config{
		N: spec.N, F: spec.F, D: sim.Time(spec.D), Delta: sim.Time(spec.Delta),
		Seed: spec.Seed, MaxSteps: sim.Time(spec.MaxSteps),
	}
	w, res, runErr := tracedWorld(rec, "core", nodes, cfg, spec.Adversary, proto.Evaluator(evalParams), g.tracer, &st)
	if w == nil {
		complain("traced %s: %v", spec.Protocol, runErr)
		return c, st
	}
	if spec.Protocol == repro.ProtoEARS || spec.Protocol == repro.ProtoSEARS {
		st.matrixMsgs = res.Messages
	}
	ps := pool.Stats()
	st.poolGets = ps.PayloadGets + ps.RumorGets
	st.poolReuses = ps.PayloadReuses + ps.RumorReuses

	// The result Run materializes: the crashed list, and the Θ(n²) rumor
	// listing unless the run is lean.
	var crashed []int
	var rumors [][]int
	for q := 0; q < spec.N; q++ {
		if !w.Alive(sim.ProcID(q)) {
			crashed = append(crashed, q)
		}
	}
	if !g.lean {
		for q := 0; q < spec.N; q++ {
			if h, ok := nodes[q].(core.RumorHolder); ok {
				rumors = append(rumors, h.RumorSet().Elements())
			}
		}
	}
	_, _ = crashed, rumors

	c.Msgs, c.Steps = res.Messages, int64(res.TimeComplexity)
	if res.BytesKnown {
		c.Bytes = res.Bytes
	}
	if runErr != nil || !res.Completed {
		complain("traced %s n=%d seed=%d failed: %v", spec.Protocol, spec.N, spec.Seed, runErr)
		return c, st
	}
	c.Failed = 0
	return c, st
}

// traced rebuilds runConsensusSpec from the layers' public functions, once
// per spec.
func (ci *consensusInstance) traced(rec *recorder) (counts, layerStats) {
	var st layerStats
	var total counts
	root := rec.beginRep(rootSpan)
	defer rec.end(root)
	for _, spec := range ci.specs {
		one := counts{Attempted: 1, Failed: 1}
		p := consensus.Params{
			N: spec.N, F: spec.F,
			Transport: consensus.TransportKind(spec.Transport),
			Gossip:    spec.Tuning,
		}
		inputs := consensus.RandomInputs(spec.N, spec.Seed)
		id := rec.begin("consensus.new_nodes")
		nodes, err := consensus.NewNodes(p, inputs, spec.Seed)
		rec.end(id)
		if err != nil {
			complain("traced consensus: %v", err)
			total.add(one)
			continue
		}
		cfg := sim.Config{
			N: spec.N, F: spec.F, D: sim.Time(spec.D), Delta: sim.Time(spec.Delta),
			Seed: spec.Seed, MaxSteps: sim.Time(spec.MaxSteps),
		}
		w, res, runErr := tracedWorld(rec, "consensus", nodes, cfg, spec.Adversary,
			consensus.Evaluator{Inputs: inputs}, ci.tracer, &st)
		if w == nil {
			complain("traced consensus: %v", runErr)
			total.add(one)
			continue
		}
		// The result Run materializes: decision and round count.
		var decision uint8
		maxRounds := 0
		for q := 0; q < spec.N; q++ {
			cn := nodes[q].(*consensus.Node)
			if decided, v, _ := cn.Decided(); decided {
				decision = v
			}
			if w.Alive(sim.ProcID(q)) && cn.Rounds() > maxRounds {
				maxRounds = cn.Rounds()
			}
		}
		_, _ = decision, maxRounds

		one.Msgs, one.Steps = res.Messages, int64(res.CompletedAt)
		if res.BytesKnown {
			one.Bytes = res.Bytes
		}
		if runErr != nil || !res.Completed {
			complain("traced consensus n=%d seed=%d failed: %v", spec.N, spec.Seed, runErr)
		} else {
			one.Failed = 0
		}
		total.add(one)
	}
	return total, st
}

// traced is scenario.Fuzz's serial loop — generate, execute, check — with a
// span around each call. A violation is counted, not shrunk.
func (f *fuzzInstance) traced(rec *recorder) (counts, layerStats) {
	var st layerStats
	c := counts{Attempted: int64(f.spec.Runs)}
	root := rec.beginRep(rootSpan)
	defer rec.end(root)
	for i := 0; i < f.spec.Runs; i++ {
		index := f.spec.FirstIndex + int64(i)
		id := rec.begin("scenario.generate")
		spec := scenario.Generate(f.spec.Seed, index)
		rec.end(id)

		id = rec.begin("scenario.execute")
		ex, err := scenario.Execute(spec)
		rec.end(id)
		if err != nil {
			complain("traced fuzz seed=%d scenario %d: %v", f.spec.Seed, index, err)
			c.Failed++
			continue
		}

		id = rec.begin("scenario.check_all")
		violations := scenario.CheckAll(ex)
		rec.end(id)
		if len(violations) > 0 {
			complain("traced fuzz seed=%d scenario %d violates %s", f.spec.Seed, index, violations[0].Oracle)
			c.Failed++
		}
		c.Msgs += ex.Res.Messages
		if ex.TwinRan {
			st.twinRuns++
		}
		if ex.ShardTwinRan {
			st.twinRuns++
		}
	}
	return c, st
}

// traced is run with the four codec functions clocked separately, summed per
// frame class into one aggregated span each.
func (w *wireInstance) traced(rec *recorder) (counts, layerStats) {
	var st layerStats
	var laps [wireClasses]wireLaps
	root := rec.beginRep(rootSpan)
	defer rec.end(root)
	c := w.roundTrips(false, func(class wireClass, frame int) *wireLaps {
		st.wireMsgs[class]++
		st.wireBytes[class] += int64(frame)
		return &laps[class]
	})
	for class := wireClass(0); class < wireClasses; class++ {
		n, l := st.wireMsgs[class], laps[class]
		rec.aggregate("core.wire_encode."+class.String(), l[lapEncode], n)
		rec.aggregate("cluster.frame_write."+class.String(), l[lapWrite], n)
		rec.aggregate("cluster.frame_read."+class.String(), l[lapRead], n)
		rec.aggregate("core.wire_decode."+class.String(), l[lapDecode], n)
	}
	return c, st
}

// ---- isolated kernels and probes ----

// bitsetKernels times the matrix operations ears spends its time in, alone,
// at n×n through the public API. Each value is the median over iters calls.
func bitsetKernels(n, iters int, seed int64) map[string]float64 {
	r := rng.New(seed).Fork(0xB175)
	// even holds random bits in even columns, odd in odd columns: disjoint.
	even, odd := bitset.NewMatrix(n), bitset.NewMatrix(n)
	for row := 0; row < n; row++ {
		for col := 0; col < n; col++ {
			if r.Uint64()&1 == 0 {
				continue
			}
			if col%2 == 0 {
				even.Set(row, col)
			} else {
				odd.Set(row, col)
			}
		}
	}
	both := even.Clone()
	both.UnionWith(odd)

	typical := func(op func() time.Duration) float64 {
		ns := make([]float64, iters)
		for i := range ns {
			ns[i] = float64(op())
		}
		return median(ns)
	}
	union := func(base *bitset.Matrix) float64 {
		return typical(func() time.Duration {
			dst := base.Clone()
			t0 := time.Now()
			dst.UnionWith(odd)
			return time.Since(t0)
		})
	}
	out := map[string]float64{
		"bitset.matrix_union_ns.disjoint": union(even),
		"bitset.matrix_union_ns.subset":   union(both), // odd ⊆ both: the union changes nothing
	}
	sink := 0
	out["bitset.matrix_count_ns"] = typical(func() time.Duration {
		t0 := time.Now()
		sink += both.Count()
		return time.Since(t0)
	})
	// One copy-on-write cycle of a pooled matrix, as every ears send and the
	// next receive cause: snapshot, write to the original, release.
	pool := bitset.NewPool(n)
	m := pool.NewMatrix()
	m.UnionWith(even)
	i := 0
	out["bitset.snapshot_release_ns"] = typical(func() time.Duration {
		i++
		t0 := time.Now()
		snap := m.Snapshot()
		m.Set(i%n, (i+sink)%n)
		snap.Release()
		return time.Since(t0)
	})
	return out
}

// telemetryRun is one untraced repetition with the streaming recorder on.
func (g *gossipInstance) telemetryRun() counts {
	return g.runWith(repro.WithTelemetry(repro.NewTelemetryRecorder(g.spec.N)))
}

// shardedRun is one untraced repetition on the sharded kernel.
func (g *gossipInstance) shardedRun(shards int) counts {
	return g.runWith(repro.WithShards(shards))
}
