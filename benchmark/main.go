// Command benchmark is the repository's benchmark: five single-threaded
// workloads, end-to-end metrics measured with tracing off in fresh child
// processes, and per-layer metrics from a separate traced run that times
// calls into each layer's public functions from outside. README.md explains
// every workload, metric and bound.
//
//	bash benchmark/run.sh -seed 1                      every workload, both runs
//	bash benchmark/run.sh -seed 1 -workload ears_clique
//	bash benchmark/run.sh -seed 1 -selfcheck           end-to-end suite twice, gaps against bounds
//	bash benchmark/run.sh --workload W --seed N --seconds T --trace 0|1   the driver's form
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"time"
)

// defaultSeconds is run_seconds of BENCHMARK.json: how long one workload's
// timed repetitions last, all children together.
const defaultSeconds = 12

// childTimeout ends a child that hangs, well inside the driver's limit.
const childTimeout = 150 * time.Second

// traceDir is where traced children leave their spans.
const traceDir = "benchmark/out"

// outcome is one workload's result in one mode, in the driver's shape.
type outcome struct {
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Metrics   map[string]reading `json:"metrics"`

	minRepNs int64 // fastest untraced repetition, the traced run's reference
}

type reading struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if raw := os.Getenv(jobEnv); raw != "" {
		var j job
		rep := childReport{}
		if err := json.Unmarshal([]byte(raw), &j); err != nil {
			rep.Error = "bad job: " + err.Error()
		} else {
			rep = runChild(j, pinned)
		}
		if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
			os.Exit(1)
		}
		return
	}

	seed := flag.Int64("seed", 1, "workload seed: every input is made from it")
	name := flag.String("workload", "", "run one workload (default: all five)")
	seconds := flag.Float64("seconds", defaultSeconds, "measuring time per workload")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only, 1: per-layer metrics only (default: both)")
	selfcheck := flag.Bool("selfcheck", false, "run the end-to-end suite twice and compare")
	flag.Parse()

	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if *name != "" {
		if _, ok := workloadByName(*name); !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %v)\n", *name, names)
			os.Exit(2)
		}
		names = []string{*name}
	}
	if flag.NArg() > 0 || *seconds <= 0 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}
	budget := time.Duration(*seconds * float64(time.Second))

	if *selfcheck {
		os.Exit(runSelfcheck(names, *seed, budget))
	}

	var timed, traced map[string]*outcome
	if *trace != 1 {
		timed = runTimed(names, *seed, budget)
		printOutcomes(names, timed, endToEnd)
	}
	if *trace != 0 {
		traced = runTraced(names, *seed, budget, timed)
		printOutcomes(names, traced, perLayer)
	}

	ok := true
	if len(names) == 1 && *trace >= 0 {
		// The driver's form: its result object is the last line.
		o := timed[names[0]]
		if *trace == 1 {
			o = traced[names[0]]
		}
		ok = o.Correct
		printJSON(o)
	} else {
		type both struct {
			EndToEnd *outcome `json:"end_to_end,omitempty"`
			PerLayer *outcome `json:"per_layer,omitempty"`
		}
		summary := map[string]both{}
		for _, n := range names {
			summary[n] = both{timed[n], traced[n]}
			for _, o := range []*outcome{timed[n], traced[n]} {
				ok = ok && (o == nil || o.Correct)
			}
		}
		printJSON(summary)
	}
	if !ok {
		os.Exit(1)
	}
}

func printJSON(v any) {
	data, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(data))
}

// spawn runs one job in a fresh child process and waits for it.
func spawn(j job, gomaxprocs int) childReport {
	exe, err := os.Executable()
	if err != nil {
		return childReport{Error: err.Error()}
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	j.SpawnedNs = time.Now().UnixNano()
	raw, err := json.Marshal(j)
	if err != nil {
		return childReport{Error: err.Error()}
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), jobEnv+"="+string(raw), "GOMAXPROCS="+strconv.Itoa(gomaxprocs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return childReport{Error: fmt.Sprintf("%s child of %s: %v", j.Mode, j.Workload, err)}
	}
	var rep childReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return childReport{Error: fmt.Sprintf("%s child of %s: bad report: %v", j.Mode, j.Workload, err)}
	}
	return rep
}

// tally folds a child's repetitions into an outcome's failure accounting
// and holds every repetition to the work of want — the determinism contract.
func (o *outcome) tally(w string, rep childReport, want *counts) {
	if rep.Error != "" {
		complain("%s: %s", w, rep.Error)
		o.Attempted++
		o.Failed++
		return
	}
	all := append([]repSample{{Counts: rep.Warm}}, rep.Reps...)
	if *want == (counts{}) {
		*want = rep.Warm
	}
	for _, r := range all {
		o.Attempted += r.Counts.Attempted
		o.Failed += r.Counts.Failed
		if !r.Counts.sameWork(*want) {
			complain("%s: repetition did msgs=%d steps=%d bytes=%d, another did msgs=%d steps=%d bytes=%d",
				w, r.Counts.Msgs, r.Counts.Steps, r.Counts.Bytes, want.Msgs, want.Steps, want.Bytes)
			o.Attempted++
			o.Failed++
		}
	}
}

func (o *outcome) set(m metric, v float64) {
	o.Metrics[m.name] = reading{Value: v, Unit: m.unit}
}

// runTimed measures the end-to-end metrics: P fresh single-threaded children
// per workload, launched round-robin across workloads so that each
// workload's samples are spread over the whole invocation.
func runTimed(names []string, seed int64, budget time.Duration) map[string]*outcome {
	reports := map[string][]childReport{}
	for c := 0; c < children; c++ {
		for _, n := range names {
			reports[n] = append(reports[n], spawn(job{
				Mode: modeTimed, Workload: n, Seed: seed,
				BudgetNs: int64(budget) / children, MinReps: minReps,
			}, 1))
		}
	}
	out := map[string]*outcome{}
	for _, n := range names {
		o := &outcome{Metrics: map[string]reading{}}
		var want counts
		var setups, nsPerMsg, allocs, allocMB []float64
		for _, rep := range reports[n] {
			o.tally(n, rep, &want)
			if rep.Error != "" {
				continue
			}
			setups = append(setups, float64(rep.SetupNs)/1e9)
			for _, r := range rep.Reps {
				if r.Counts.Msgs > 0 {
					nsPerMsg = append(nsPerMsg, float64(r.Ns)/float64(r.Counts.Msgs))
				}
				allocs = append(allocs, float64(r.Allocs))
				allocMB = append(allocMB, float64(r.AllocBytes)/1e6)
				if o.minRepNs == 0 || r.Ns < o.minRepNs {
					o.minRepNs = r.Ns
				}
			}
		}
		if len(nsPerMsg) > 0 {
			// Timings: set-up is the median over the children; the time per
			// message is the minimum over every repetition of every child,
			// which identical work on a noisy box reproduces best. Counts
			// are medians.
			values := map[string]float64{
				"setup_s":          median(setups),
				"ns_per_msg":       slices.Min(nsPerMsg),
				"allocs_per_run":   median(allocs),
				"alloc_mb_per_run": median(allocMB),
				"msgs_per_run":     float64(want.Msgs),
			}
			for _, m := range endToEnd {
				o.set(m, values[m.name])
			}
		}
		o.Correct = o.Failed == 0 && len(o.Metrics) == len(endToEnd)
		out[n] = o
	}
	return out
}

// runTraced measures the per-layer metrics: one traced child per workload,
// an untraced reference for the tracing overhead (the end-to-end run's
// fastest repetition when there is one), and on the probe workload the
// telemetry and two-shard comparisons.
func runTraced(names []string, seed int64, budget time.Duration, timed map[string]*outcome) map[string]*outcome {
	out := map[string]*outcome{}
	for _, n := range names {
		w, _ := workloadByName(n)
		o := &outcome{Metrics: map[string]reading{}}
		var want counts
		layer := map[string]float64{}

		var refNs int64
		if t := timed[n]; t != nil {
			refNs = t.minRepNs
		}
		if refNs == 0 || w.probes {
			ref := spawn(job{
				Mode: modeTimed, Workload: n, Seed: seed,
				BudgetNs: int64(budget) / 4, MinReps: tracedReps, Telemetry: w.probes,
			}, 1)
			o.tally(n, ref, &want)
			if ref.Error == "" {
				plain := slices.Min(nsOf(ref.Reps))
				if refNs == 0 || plain < refNs {
					refNs = plain
				}
				if len(ref.TelemetryNs) > 0 {
					layer["telemetry.recorder_overhead_share"] = float64(slices.Min(ref.TelemetryNs))/float64(plain) - 1
				}
			}
		}

		tr := spawn(job{
			Mode: modeTraced, Workload: n, Seed: seed,
			BudgetNs: int64(budget) / 4, MinReps: tracedReps,
			TraceFile: fmt.Sprintf("%s/trace-%s.json", traceDir, n),
		}, 1)
		o.tally(n, tr, &want)
		for _, u := range tr.Unaccounted {
			complain("%s: span accounting: %s", n, u)
			o.Attempted++
			o.Failed++
		}
		for k, v := range tr.Layer {
			layer[k] = v
		}
		if refNs > 0 && tr.Error == "" {
			share := layer["repro.run_s"]*1e9/float64(refNs) - 1
			layer["trace.overhead_share"] = share
			if share > 0.25 {
				complain("%s: tracing overhead %.0f%% is above 25%%: per-layer shares are distorted", n, share*100)
			}
		}

		if w.probes {
			sh := spawn(job{Mode: modeShard, Workload: n, Seed: seed, MinReps: tracedReps}, 2)
			o.tally(n, sh, &want)
			if sh.Error == "" {
				layer["sim.shard2_speedup"] = float64(slices.Min(sh.SerialNs)) / float64(slices.Min(sh.ShardNs))
			}
		}

		for _, m := range perLayer {
			o.set(m, layer[m.name])
		}
		o.Correct = o.Failed == 0 && tr.Error == ""
		out[n] = o
	}
	return out
}

// printOutcomes prints one line per metric: workload, metric, value, unit.
func printOutcomes(names []string, res map[string]*outcome, table []metric) {
	for _, n := range names {
		o := res[n]
		for _, m := range table {
			if r, ok := o.Metrics[m.name]; ok {
				fmt.Printf("%-16s %-36s %16.6g %s\n", n, m.name, r.Value, r.Unit)
			}
		}
		w, _ := workloadByName(n)
		fmt.Printf("%-16s %-36s %16.6g %s\n", n, "failed_share", float64(o.Failed)/float64(max(o.Attempted, 1)), "ratio")
		fmt.Printf("%-16s attempted %d %s, failed %d\n", n, o.Attempted, w.ops, o.Failed)
	}
}

// runSelfcheck runs the end-to-end suite twice on the same seed and prints,
// per workload and metric, both values, their gap and the gap allowed
// between two runs of the same code. It returns the exit code.
func runSelfcheck(names []string, seed int64, budget time.Duration) int {
	a := runTimed(names, seed, budget)
	b := runTimed(names, seed, budget)
	code := 0
	fmt.Printf("%-16s %-18s %14s %14s %9s %9s\n", "workload", "metric", "first", "second", "gap", "allowed")
	for _, n := range names {
		for _, m := range endToEnd {
			x, y := a[n].Metrics[m.name].Value, b[n].Metrics[m.name].Value
			gap := math.Abs(y-x) / x
			verdict := ""
			if !(gap <= repeatGap[m.name]) {
				verdict = "  FAIL"
				code = 1
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %8.2f%% %8.2f%%%s\n",
				n, m.name, x, y, gap*100, repeatGap[m.name]*100, verdict)
		}
		for _, o := range []*outcome{a[n], b[n]} {
			if !o.Correct {
				fmt.Printf("%-16s failed %d of %d\n", n, o.Failed, o.Attempted)
				code = 1
			}
		}
	}
	return code
}
