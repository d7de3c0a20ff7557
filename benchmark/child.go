package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// jobEnv carries a child's job. The orchestrator re-executes its own binary
// with it set, so every measurement starts from a fresh process: fresh heap,
// fresh memory layout, nothing warmed by another workload.
const jobEnv = "GOSSIPBENCH_JOB"

const (
	modeTimed  = "timed"  // warm-up, then timed repetitions with tracing off
	modeTraced = "traced" // warm-up, then repetitions rebuilt from the layers with spans
	modeShard  = "shard"  // serial against two shards, at GOMAXPROCS=2
)

type job struct {
	Mode      string `json:"mode"`
	Workload  string `json:"workload"`
	Seed      int64  `json:"seed"`
	BudgetNs  int64  `json:"budget_ns"` // keep repeating until this much has been measured
	MinReps   int    `json:"min_reps"`
	SpawnedNs int64  `json:"spawned_ns"` // wall clock when the orchestrator started the child
	// Telemetry asks a timed child for further repetitions with the
	// streaming recorder attached.
	Telemetry bool   `json:"telemetry,omitempty"`
	TraceFile string `json:"trace_file,omitempty"`
}

// repSample is one measured repetition.
type repSample struct {
	Ns         int64  `json:"ns"`
	Counts     counts `json:"counts"`
	Allocs     uint64 `json:"allocs"`
	AllocBytes uint64 `json:"alloc_bytes"`
	GCCycles   uint32 `json:"gc_cycles"`
	GCPauseNs  uint64 `json:"gc_pause_ns"`
}

type childReport struct {
	SetupNs int64       `json:"setup_ns"` // process start → first timed repetition
	Warm    counts      `json:"warm"`
	Reps    []repSample `json:"reps"`

	TelemetryNs []int64 `json:"telemetry_ns,omitempty"` // timed child, recorder attached
	SerialNs    []int64 `json:"serial_ns,omitempty"`    // shard child
	ShardNs     []int64 `json:"shard_ns,omitempty"`

	// Traced child: the per-layer metrics of its fastest repetition, and
	// whatever broke the span accounting.
	Layer       map[string]float64 `json:"layer,omitempty"`
	Unaccounted []string           `json:"unaccounted,omitempty"`

	Error string `json:"error,omitempty"`
}

// measure runs one repetition from a collected heap and reads the clock and
// the allocator around it.
func measure(rep func() counts) repSample {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	c := rep()
	ns := time.Since(t0)
	runtime.ReadMemStats(&after)
	return repSample{
		Ns:         int64(ns),
		Counts:     c,
		Allocs:     after.Mallocs - before.Mallocs,
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		GCCycles:   after.NumGC - before.NumGC,
		GCPauseNs:  after.PauseTotalNs - before.PauseTotalNs,
	}
}

// repeat measures rep at least minReps times and until budget has passed.
func repeat(minReps int, budget time.Duration, rep func() counts) []repSample {
	var reps []repSample
	start := time.Now()
	for len(reps) < minReps || time.Since(start) < budget {
		reps = append(reps, measure(rep))
	}
	return reps
}

func nsOf(reps []repSample) []int64 {
	ns := make([]int64, len(reps))
	for i, r := range reps {
		ns[i] = r.Ns
	}
	return ns
}

// runChild executes one job in this process.
func runChild(j job, sz sizes) childReport {
	w, ok := workloadByName(j.Workload)
	if !ok {
		return childReport{Error: "unknown workload " + j.Workload}
	}
	inst, err := w.build(sz, j.Seed)
	if err != nil {
		return childReport{Error: err.Error()}
	}
	budget := time.Duration(j.BudgetNs)
	var rep childReport
	switch j.Mode {
	case modeTimed:
		rep.Warm = inst.run(true)
		runtime.GC()
		rep.SetupNs = time.Now().UnixNano() - j.SpawnedNs
		rep.Reps = repeat(j.MinReps, budget, func() counts { return inst.run(false) })
		if g, ok := inst.(*gossipInstance); ok && j.Telemetry {
			rep.TelemetryNs = nsOf(repeat(j.MinReps, 0, g.telemetryRun))
		}
	case modeTraced:
		rec := newRecorder()
		var stats []layerStats
		traced := func() counts {
			c, st := inst.traced(rec)
			stats = append(stats, st)
			return c
		}
		rep.Warm = traced() // repetition 0 of the trace file
		rep.SetupNs = time.Now().UnixNano() - j.SpawnedNs
		rep.Reps = repeat(j.MinReps, budget, traced)
		best := 0
		for i, r := range rep.Reps {
			if r.Ns < rep.Reps[best].Ns {
				best = i
			}
		}
		// Repetition 0 was the warm-up, so timed repetition i is span
		// repetition i+1.
		sum, st := rec.summarize(best+1), stats[best+1]
		rep.Unaccounted = sum.unaccounted
		rep.Layer = layerMetrics(rec, sum, rep.Reps[best], st)
		for name, v := range bitsetKernels(sz.BitsetN, sz.BitsetIters, j.Seed) {
			rep.Layer[name] = v
		}
		if simRun := sum.total["sim.run"]; simRun > 0 && st.matrixMsgs > 0 {
			perMsg := rep.Layer["bitset.matrix_union_ns.disjoint"] + rep.Layer["bitset.matrix_count_ns"]
			rep.Layer["bitset.union_share_est"] = perMsg * float64(st.matrixMsgs) / float64(simRun)
		}
		rep.Layer["runtime.peak_rss_mb"] = peakRSSMB()
		if err := writeTrace(j, rec); err != nil {
			rep.Error = err.Error()
		}
	case modeShard:
		g, ok := inst.(*gossipInstance)
		if !ok {
			return childReport{Error: j.Workload + " has no sharded kernel run"}
		}
		rep.Warm = g.run(true)
		for i := 0; i < j.MinReps; i++ {
			serial := measure(func() counts { return g.run(false) })
			sharded := measure(func() counts { return g.shardedRun(2) })
			rep.Reps = append(rep.Reps, serial, sharded)
			rep.SerialNs = append(rep.SerialNs, serial.Ns)
			rep.ShardNs = append(rep.ShardNs, sharded.Ns)
		}
	default:
		rep.Error = "unknown mode " + j.Mode
	}
	return rep
}

// layerMetrics turns the fastest traced repetition into per-layer metrics.
// Times inside the repetition are shares of it, so that a bypassed layer
// reads 0; repro.run_s turns a share back into seconds.
func layerMetrics(rec *recorder, sum repSummary, rep repSample, st layerStats) map[string]float64 {
	run := float64(rec.spans[sum.root].dur())
	share := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += sum.total[n]
		}
		return float64(ns) / run
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	c := rep.Counts
	m := map[string]float64{
		"repro.run_s":         run / 1e9,
		"repro.self_share":    float64(sum.self[rootSpan]) / run,
		"repro.steps_per_run": float64(c.Steps),
		"repro.bytes_per_msg": ratio(c.Bytes, c.Msgs),

		"core.new_nodes_share":  share("core.new_nodes"),
		"core.step_share":       share("core.step"),
		"core.pool_reuse_ratio": ratio(st.poolReuses, st.poolGets),

		"sim.new_world_share":    share("sim.new_world"),
		"sim.run_share":          share("sim.run"),
		"sim.kernel_self_share":  float64(sum.self["sim.run"]) / run,
		"sim.node_steps":         float64(st.nodeSteps),
		"sim.arena_peak_pending": float64(st.arenaPeak),
		"sim.arena_blocks":       float64(st.arenaBlocks),

		"adversary.build_share":    share("adversary.build"),
		"adversary.schedule_share": share("adversary.schedule", "adversary.crashes"),
		"adversary.delay_calls":    float64(st.delayCalls),

		"consensus.new_nodes_share": share("consensus.new_nodes"),
		"consensus.step_share":      share("consensus.step"),

		"runtime.gc_cycles_per_run": float64(rep.GCCycles),
		"runtime.gc_pause_share":    float64(rep.GCPauseNs) / run,

		"scenario.generate_share":  share("scenario.generate"),
		"scenario.execute_share":   share("scenario.execute"),
		"scenario.check_all_share": share("scenario.check_all"),
		"scenario.twin_runs":       float64(st.twinRuns),

		"core.wire_encode_share.matrix": share("core.wire_encode.matrix"),
		"core.wire_decode_share.matrix": share("core.wire_decode.matrix"),
		"core.wire_encode_share.small":  share("core.wire_encode.small"),
		"core.wire_decode_share.small":  share("core.wire_decode.small"),
		"cluster.frame_write_share":     share("cluster.frame_write.matrix", "cluster.frame_write.small"),
		"cluster.frame_read_share":      share("cluster.frame_read.matrix", "cluster.frame_read.small"),

		"cluster.wire_bytes_per_msg.matrix": ratio(st.wireBytes[wireMatrix], st.wireMsgs[wireMatrix]),
		"cluster.wire_bytes_per_msg.small":  ratio(st.wireBytes[wireSmall], st.wireMsgs[wireSmall]),
	}
	if wired := st.wireMsgs[wireMatrix] + st.wireMsgs[wireSmall]; wired > 0 {
		m["cluster.wire_allocs_per_msg"] = float64(rep.Allocs) / float64(wired)
	}
	return m
}

// peakRSSMB reads this process's resident-set high-water mark.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024
		}
	}
	return 0
}

// writeTrace writes the child's spans to its trace file.
func writeTrace(j job, rec *recorder) error {
	if err := os.MkdirAll(filepath.Dir(j.TraceFile), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Note     string `json:"note"`
		Spans    []span `json:"spans"`
	}{j.Workload, j.Seed, "rep 0 is the warm-up; parent is an index into spans", rec.spans})
	if err != nil {
		return err
	}
	if err := os.WriteFile(j.TraceFile, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
