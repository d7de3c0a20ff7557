package main

import "repro/internal/stats"

// metric is one named number the benchmark prints. bound is the share of
// the parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64
}

// endToEnd is measured with tracing off. Every workload reports every one.
//
// Every bound is the widest the driver allows. The driver holds a metric's
// spread over ten runs on ten different seeds against its bound, and that
// spread is not ours to shrink: the three counts are exact for one seed
// (-selfcheck holds them to equality) but vary with the input (fuzz_mixed
// allocations by ~10 %, consensus_tears messages by ~7 %), and the timings,
// 1-7 % apart on a quiet box, moved 8-17 % apart when the shared box slowed
// down for minutes at a time (README, "Noise, measured").
var endToEnd = []metric{
	{"setup_s", "s", "lower", 0.25},
	{"ns_per_msg", "ns", "lower", 0.25},
	{"allocs_per_run", "count", "lower", 0.25},
	{"alloc_mb_per_run", "MB", "lower", 0.25},
	{"msgs_per_run", "count", "lower", 0.25},
}

// repeatGap is the gap -selfcheck allows between two runs of the same code
// on the same seed: timings as far as the noise measurements justify, the
// allocator's counts within a percent, the simulated counts exactly.
var repeatGap = map[string]float64{
	"setup_s":          0.10,
	"ns_per_msg":       0.10,
	"allocs_per_run":   0.01,
	"alloc_mb_per_run": 0.01,
	"msgs_per_run":     0,
}

// perLayer comes from the separate traced run. A layer a workload bypasses
// reads 0, so what could read 0 is a share or a count, never a time.
var perLayer = []metric{
	{"repro.run_s", "s", "lower", 0},
	{"repro.self_share", "ratio", "lower", 0},
	{"repro.steps_per_run", "steps", "lower", 0},
	{"repro.bytes_per_msg", "B", "lower", 0},
	{"trace.overhead_share", "ratio", "lower", 0},

	{"core.new_nodes_share", "ratio", "lower", 0},
	{"core.step_share", "ratio", "lower", 0},
	{"core.pool_reuse_ratio", "ratio", "higher", 0},

	{"bitset.matrix_union_ns.disjoint", "ns", "lower", 0},
	{"bitset.matrix_union_ns.subset", "ns", "lower", 0},
	{"bitset.matrix_count_ns", "ns", "lower", 0},
	{"bitset.snapshot_release_ns", "ns", "lower", 0},
	{"bitset.union_share_est", "ratio", "lower", 0},

	{"sim.new_world_share", "ratio", "lower", 0},
	{"sim.run_share", "ratio", "lower", 0},
	{"sim.kernel_self_share", "ratio", "lower", 0},
	{"sim.node_steps", "count", "lower", 0},
	{"sim.arena_peak_pending", "count", "lower", 0},
	{"sim.arena_blocks", "count", "lower", 0},
	{"sim.shard2_speedup", "ratio", "higher", 0},

	{"adversary.build_share", "ratio", "lower", 0},
	{"adversary.schedule_share", "ratio", "lower", 0},
	{"adversary.delay_calls", "count", "lower", 0},

	{"consensus.new_nodes_share", "ratio", "lower", 0},
	{"consensus.step_share", "ratio", "lower", 0},

	{"runtime.gc_cycles_per_run", "count", "lower", 0},
	{"runtime.gc_pause_share", "ratio", "lower", 0},
	{"runtime.peak_rss_mb", "MB", "lower", 0},

	{"scenario.generate_share", "ratio", "lower", 0},
	{"scenario.execute_share", "ratio", "lower", 0},
	{"scenario.check_all_share", "ratio", "lower", 0},
	{"scenario.twin_runs", "count", "lower", 0},

	{"core.wire_encode_share.matrix", "ratio", "lower", 0},
	{"core.wire_decode_share.matrix", "ratio", "lower", 0},
	{"core.wire_encode_share.small", "ratio", "lower", 0},
	{"core.wire_decode_share.small", "ratio", "lower", 0},
	{"cluster.frame_write_share", "ratio", "lower", 0},
	{"cluster.frame_read_share", "ratio", "lower", 0},
	{"cluster.wire_allocs_per_msg", "count", "lower", 0},
	{"cluster.wire_bytes_per_msg.matrix", "B", "lower", 0},
	{"cluster.wire_bytes_per_msg.small", "B", "lower", 0},

	{"telemetry.recorder_overhead_share", "ratio", "lower", 0},
}

// median is the sample median (the mean of the middle two of an even sample).
func median(v []float64) float64 { return stats.Summarize(v).Median }
