// Command tables regenerates every table and figure of the paper's
// evaluation; internal/experiments holds the measurement harness and its
// experiment index:
//
//	tables -exp table1          # Table 1: gossip protocols
//	tables -exp table2          # Table 2: consensus protocols
//	tables -exp figure1         # Theorem 1 / Figure 1 lower bound
//	tables -exp coa             # Corollary 2: cost of asynchrony
//	tables -exp delta           # Theorem 12: messages vs d (and vs δ)
//	tables -exp fsweep          # Theorem 6: ears time vs n/(n−f)
//	tables -exp crossover       # ears/trivial message crossover
//	tables -exp stages          # ears §3.2 stage milestones
//	tables -exp latency         # per-rumor dissemination latency
//	tables -exp topology        # gossip across graph families
//	tables -exp npsweep         # ears on G(n, c·ln n/n) density sweep
//	tables -exp pushpull        # push/pull/push-pull on the same density axis
//	tables -exp avgcurve        # averaging diffusion time vs ε
//	tables -exp ablations       # design-choice sweeps
//	tables -exp all -full       # everything, at full scale
//	tables -exp table1 -csv out # additionally write out/<name>.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tables:", err)
		os.Exit(1)
	}
}

// tabler is any experiment result that can render a stats table.
type tabler interface {
	Table() *stats.Table
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment: table1|table2|figure1|coa|delta|fsweep|crossover|stages|latency|topology|npsweep|pushpull|avgcurve|ablations|all")
		full    = fs.Bool("full", false, "full scale (experiments.Full sizes; slower)")
		d       = fs.Int("d", 2, "max message delay for the tables")
		delta   = fs.Int("delta", 2, "max scheduling gap for the tables")
		seed    = fs.Int64("seed", 1, "random seed of figure1, stages and latency (the other tables use run-index seeds)")
		workers = fs.Int("workers", 0, "worker pool for the (spec × seed) grid (0 = GOMAXPROCS, 1 = serial; results are identical)")
		shards  = fs.Int("shards", 0, "split each run into this many superstep shards (0/1 = serial kernel; results are identical)")
		seeds   = fs.Int("seeds", 0, "per-point repetition count (0 = scale default)")
		csvDir  = fs.String("csv", "", "directory to additionally write <name>.csv files into")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scale := experiments.Quick
	if *full {
		scale = experiments.Full
	}
	env := experiments.Env{Scale: scale, Workers: *workers, Seeds: *seeds, Shards: *shards}
	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return fmt.Errorf("tables: creating csv dir: %w", err)
		}
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }

	emit := func(name string, t tabler) error {
		tab := t.Table()
		fmt.Fprintln(out, tab.String())
		if *csvDir == "" {
			return nil
		}
		path := filepath.Join(*csvDir, name+".csv")
		if err := os.WriteFile(path, []byte(tab.CSV()), 0o644); err != nil {
			return fmt.Errorf("tables: writing %s: %w", path, err)
		}
		return nil
	}

	type job struct {
		name string
		make func() (tabler, error)
	}
	jobs := []job{
		{"table1", func() (tabler, error) { return experiments.Table1(env, *d, *delta) }},
		{"table2", func() (tabler, error) { return experiments.Table2(env, *d, *delta) }},
		{"figure1", func() (tabler, error) { return experiments.Figure1(env, *seed) }},
		{"coa", func() (tabler, error) { return experiments.CostOfAsynchrony(env) }},
		{"delta", func() (tabler, error) { return experiments.DeltaSweep(env) }},
		{"fsweep", func() (tabler, error) { return experiments.FSweep(env) }},
		{"crossover", func() (tabler, error) { return experiments.Crossover(env) }},
		{"stages", func() (tabler, error) { return experiments.EarsStages(env, *seed) }},
		{"latency", func() (tabler, error) { return experiments.RumorLatencyTables(env, *seed) }},
		{"topology", func() (tabler, error) { return experiments.TopologySweep(env) }},
		{"npsweep", func() (tabler, error) { return experiments.NPSweep(env) }},
		{"pushpull", func() (tabler, error) { return experiments.PushPullSweep(env) }},
		{"avgcurve", func() (tabler, error) { return experiments.AveragingCurve(env) }},
	}
	for _, j := range jobs {
		if !want(j.name) {
			continue
		}
		res, err := j.make()
		if err != nil {
			return err
		}
		if err := emit(j.name, res); err != nil {
			return err
		}
		// The δ companion of the d sweep.
		if j.name == "delta" {
			sres, err := experiments.SchedSweep(env)
			if err != nil {
				return err
			}
			if err := emit("delta-sched", sres); err != nil {
				return err
			}
		}
	}

	if want("ablations") {
		abls := []job{
			{"ablation-shutdown", func() (tabler, error) { return experiments.AblationShutdown(env) }},
			{"ablation-epsilon", func() (tabler, error) { return experiments.AblationEpsilon(env) }},
			{"ablation-coin", func() (tabler, error) { return experiments.AblationCoin(env) }},
		}
		for _, j := range abls {
			res, err := j.make()
			if err != nil {
				return err
			}
			if err := emit(j.name, res); err != nil {
				return err
			}
		}
	}
	return nil
}
