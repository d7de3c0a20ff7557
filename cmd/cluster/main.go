// Command cluster replays a scenario spec over a live networked gossip
// cluster (internal/cluster): a registry plus n nodes, each with its own
// TCP listener on loopback, exchanging the simulator's own payloads as
// versioned binary envelopes. By default every node is a real OS process
// (this binary re-executed in node mode); -inproc runs the nodes as
// goroutines with separate listeners in one process, the cheap shape CI
// smoke uses. The finished run is judged by the live-adapted oracle
// subset and summarized as a schema-versioned BENCH_live.json artifact.
//
//	cluster -spec testdata/corpus-seed/<seed>.json -out BENCH_live.json
//	cluster -inproc -spec spec.json              # one process, CI smoke
//	cluster -proto ears -n 16 -f 3               # ad-hoc spec, no file
//	cluster -metrics -v ...                      # per-node OpenMetrics endpoints
//	cluster -check BENCH_live.json               # validate an artifact
//
// Spec files may be bare scenario specs, fuzz corpus entries, or fuzz
// reports (the minimized repro is used). Exit status: 0 when every live
// oracle accepted, 1 on oracle violation or timeout, 2 on usage or
// harness error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/assemble"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/scenario"
)

// specEnv carries the spec JSON from the driver to node-mode children, so
// ad-hoc specs need no file on disk.
const specEnv = "REPRO_CLUSTER_SPEC"

func main() { os.Exit(run()) }

func run() int {
	var (
		specPath = flag.String("spec", "", "scenario spec to replay (bare spec, corpus entry, or fuzz report)")
		proto    = flag.String("proto", "ears", "protocol for an ad-hoc spec when -spec is not given")
		n        = flag.Int("n", 16, "cluster size for an ad-hoc spec")
		f        = flag.Int("f", 0, "crash budget for an ad-hoc spec (crashes generated)")
		seed     = flag.Int64("seed", 1, "seed for an ad-hoc spec")

		inproc    = flag.Bool("inproc", false, "run nodes as goroutines in this process (separate listeners)")
		stepEvery = flag.Duration("step-every", time.Millisecond, "wall clock per simulated step (node pacing)")
		heartbeat = flag.Duration("heartbeat", 25*time.Millisecond, "heartbeat and quiescence-sweep pacing")
		timeout   = flag.Duration("timeout", 60*time.Second, "abort the run if not quiesced")
		traceCap  = flag.Int("trace-cap", 0, "per-node live event trace bound (0 = default)")
		metrics   = flag.Bool("metrics", false, "serve per-node OpenMetrics endpoints on ephemeral loopback ports")
		out       = flag.String("out", "", "write the BENCH_live.json artifact here")
		check     = flag.String("check", "", "validate an existing artifact and exit")
		verbose   = flag.Bool("v", false, "per-node detail")

		// Node mode (internal): the driver re-executes this binary with
		// these flags; the spec arrives via the environment.
		nodeMode     = flag.Bool("node", false, "internal: run as one cluster node")
		nodeID       = flag.Int("id", -1, "internal: node id")
		registry     = flag.String("registry", "", "internal: registry address")
		crashAfter   = flag.Duration("crash-after", 0, "internal: crash the gossip plane this long after the epoch")
		startTimeout = flag.Duration("start-timeout", 0, "internal: join/discovery bound")
		metricsAddr  = flag.String("metrics-addr", "", "internal: metrics listen address")
	)
	flag.Parse()

	if *check != "" {
		b, err := cluster.ReadBenchLive(*check)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cluster:", err)
			return 1
		}
		fmt.Printf("%s: valid %s artifact: %s mode=%s passed=%v completed=%v\n",
			*check, b.Schema, b.Label, b.Mode, b.Passed, b.Completed)
		return 0
	}

	if *nodeMode {
		return runNode(*nodeID, *registry, *stepEvery, *heartbeat, *crashAfter,
			*startTimeout, *traceCap, *metricsAddr, *seed)
	}

	spec, err := loadSpec(*specPath, *proto, *n, *f, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		return 2
	}

	opts := cluster.Options{
		StepEvery: *stepEvery,
		Heartbeat: *heartbeat,
		Timeout:   *timeout,
		TraceCap:  *traceCap,
		Metrics:   *metrics,
	}
	if !*inproc {
		launch, err := procLauncher(spec, *verbose)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cluster:", err)
			return 2
		}
		opts.Launch = launch
	}

	fmt.Printf("cluster: %s (%s, step-every=%v)\n", spec.Label(), modeName(*inproc), *stepEvery)
	res, err := cluster.Run(context.Background(), spec, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cluster:", err)
		return 2
	}
	printResult(res, *verbose)

	if *out != "" {
		if err := cluster.WriteBenchLive(*out, cluster.NewBenchLive(res)); err != nil {
			fmt.Fprintln(os.Stderr, "cluster:", err)
			return 2
		}
		fmt.Printf("wrote %s\n", *out)
	}
	if !res.Passed {
		return 1
	}
	return 0
}

func modeName(inproc bool) string {
	if inproc {
		return cluster.ModeInproc
	}
	return cluster.ModeProcs
}

// loadSpec reads the spec file, or synthesizes an ad-hoc spec: the given
// protocol on a clique under uniform unit expectations, with f crashes
// striking the highest ids (the spread initiator 0 always survives).
func loadSpec(path, proto string, n, f int, seed int64) (scenario.Spec, error) {
	if path != "" {
		return scenario.ReadSpecFile(path)
	}
	spec := scenario.Spec{
		Protocol: proto, N: n, F: f, D: 2, Delta: 2, Seed: seed,
		Schedule: scenario.ScheduleSpec{Kind: scenario.SchedEvery},
		Delay:    scenario.DelaySpec{Kind: scenario.DelayFixed, Value: 1},
		Majority: proto == core.NameTEARS,
	}
	for i := 0; i < f; i++ {
		spec.Crashes = append(spec.Crashes, scenario.CrashEvent{At: int64(10 + 7*i), Proc: n - 1 - i})
	}
	// naive is the ablation that legitimately fails; averaging with
	// crashes destroys mass, so only the crash-free case promises the mean.
	spec.ExpectComplete = proto != core.NameNaive &&
		!(proto == core.NameAverage && f > 0)
	return spec, spec.Validate()
}

// procLauncher re-executes this binary in node mode, one OS process per
// node, handing the spec down via the environment.
func procLauncher(spec scenario.Spec, verbose bool) (func(cluster.NodeConfig, chan<- error), error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	return func(cfg cluster.NodeConfig, errs chan<- error) {
		args := []string{
			"-node",
			"-id", strconv.Itoa(cfg.ID),
			"-n", strconv.Itoa(cfg.N),
			"-registry", cfg.RegistryAddr,
			"-step-every", cfg.StepEvery.String(),
			"-heartbeat", cfg.HeartbeatEvery.String(),
			"-start-timeout", cfg.StartTimeout.String(),
			"-crash-after", cfg.CrashAfter.String(),
			"-trace-cap", strconv.Itoa(cfg.TraceCap),
			"-seed", strconv.FormatInt(cfg.Seed, 10),
		}
		if cfg.MetricsAddr != "" {
			args = append(args, "-metrics-addr", cfg.MetricsAddr)
		}
		cmd := exec.Command(exe, args...)
		cmd.Env = append(os.Environ(), specEnv+"="+string(specJSON))
		if verbose {
			cmd.Stderr = os.Stderr
		}
		if err := cmd.Start(); err != nil {
			errs <- fmt.Errorf("start node %d: %w", cfg.ID, err)
			return
		}
		go func() {
			if err := cmd.Wait(); err != nil {
				errs <- fmt.Errorf("node %d process: %w", cfg.ID, err)
			}
		}()
	}, nil
}

// runNode is the child half of procs mode: rebuild the spec's protocol
// nodes deterministically (same seed, same fork per id as the driver's
// in-process path), take ours, and run the lifecycle.
func runNode(id int, registry string, stepEvery, heartbeat, crashAfter,
	startTimeout time.Duration, traceCap int, metricsAddr string, seed int64) int {
	var spec scenario.Spec
	if err := json.Unmarshal([]byte(os.Getenv(specEnv)), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "node %d: bad %s: %v\n", id, specEnv, err)
		return 2
	}
	if err := spec.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "node %d: %v\n", id, err)
		return 2
	}
	if id < 0 || id >= spec.N || registry == "" {
		fmt.Fprintf(os.Stderr, "node: need -id in [0,%d) and -registry\n", spec.N)
		return 2
	}
	r := spec.Run()
	r.Gossip.NoPool = true
	pc, err := assemble.Build(r)
	if err != nil {
		fmt.Fprintf(os.Stderr, "node %d: %v\n", id, err)
		return 2
	}
	cfg := cluster.NodeConfig{
		ID: id, N: spec.N,
		RegistryAddr:   registry,
		StepEvery:      stepEvery,
		HeartbeatEvery: heartbeat,
		CrashAfter:     crashAfter,
		StartTimeout:   startTimeout,
		Graph:          pc.Config.Graph,
		TraceCap:       traceCap,
		MetricsAddr:    metricsAddr,
		Seed:           seed,
	}
	if _, err := cluster.RunNode(cfg, pc.Nodes[id]); err != nil {
		fmt.Fprintf(os.Stderr, "node %d: %v\n", id, err)
		return 1
	}
	return 0
}

func printResult(res *cluster.Result, verbose bool) {
	fmt.Printf("quiesced in %v (total %v): %d messages (%.0f/s), %d steps, %d drained\n",
		res.QuiesceWall, res.Wall, res.TotalSent,
		float64(res.TotalSent)/maxSeconds(res.Wall), res.TotalSteps, res.TotalDrained)
	fmt.Printf("delivery latency: p50=%v p90=%v p99=%v max=%v (%d samples)\n",
		time.Duration(res.Latency.P50), time.Duration(res.Latency.P90),
		time.Duration(res.Latency.P99), time.Duration(res.Latency.Max), res.Latency.Count)
	if verbose {
		for _, rp := range res.Reports {
			status := "ok"
			if rp.Crashed {
				status = "crashed"
			}
			fmt.Printf("  node %2d [%s]: steps=%d sent=%d received=%d drained=%d addr=%s",
				rp.ID, status, rp.Steps, rp.Sent, rp.Received, rp.Drained, rp.Addr)
			if rp.MetricsAddr != "" {
				fmt.Printf(" metrics=http://%s/metrics", rp.MetricsAddr)
			}
			fmt.Println()
		}
	}
	for _, v := range res.Verdicts {
		if v.OK {
			fmt.Printf("  oracle %-25s ok\n", v.Oracle)
		} else {
			fmt.Printf("  oracle %-25s VIOLATION: %s\n", v.Oracle, v.Detail)
		}
	}
	if res.Passed {
		fmt.Println("PASS")
	} else {
		fmt.Println("FAIL")
	}
}

func maxSeconds(d time.Duration) float64 {
	if s := d.Seconds(); s > 0 {
		return s
	}
	return 1
}
