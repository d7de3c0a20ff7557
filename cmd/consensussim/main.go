// Command consensussim runs a single randomized-consensus simulation
// (Canetti–Rabin framework over the chosen get-core transport) and prints
// the decision and complexity measures.
//
// Example:
//
//	consensussim -transport tears -n 128 -f 63 -d 2 -delta 2 -seed 7
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "consensussim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("consensussim", flag.ContinueOnError)
	var (
		tr      = fs.String("transport", repro.TransportTEARS, "get-core transport: direct|ears|sears|tears")
		n       = fs.Int("n", 64, "number of processes")
		f       = fs.Int("f", 31, "crash budget (must be < n/2)")
		d       = fs.Int("d", 2, "max message delay")
		delta   = fs.Int("delta", 2, "max scheduling gap")
		adv     = fs.String("adversary", repro.AdversaryStandard, "adversary preset")
		seed    = fs.Int64("seed", 1, "random seed")
		local   = fs.Bool("localcoin", false, "use Ben-Or local coins instead of the common coin")
		topo    = fs.String("topology", "", "communication graph family (empty = complete; see gossipsim -topology)")
		tp1     = fs.Float64("topo-param", 0, "topology parameter (0 = family default)")
		tp2     = fs.Float64("topo-param2", 0, "second topology parameter (0 = default)")
		seeds   = fs.Int("seeds", 0, "number of seeds to run (default 1)")
		workers = fs.Int("workers", 0, "run the seeds concurrently on this many workers (0 = GOMAXPROCS; output is identical to serial)")
		shards  = fs.Int("shards", 0, "split each run into this many superstep shards (0/1 = serial kernel; output is identical for any value)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	count := max(*seeds, 1)
	specs := make([]repro.ConsensusSpec, count)
	for i := range specs {
		specs[i] = repro.ConsensusSpec{
			Transport:      *tr,
			N:              *n,
			F:              *f,
			D:              *d,
			Delta:          *delta,
			Adversary:      *adv,
			Seed:           *seed + int64(i),
			LocalCoin:      *local,
			Topology:       *topo,
			TopologyParam:  *tp1,
			TopologyParam2: *tp2,
		}
	}
	// Chunked like gossipsim: bounded buffering, seed-ordered output, and
	// errors stop the sweep within a chunk.
	for start := 0; start < count; start += chunkSize(*workers) {
		end := min(start+chunkSize(*workers), count)
		batch, errs := repro.RunMany(context.Background(), specs[start:end],
			repro.WithWorkers(*workers), repro.WithShards(*shards))
		for j, r := range batch {
			i := start + j
			if errs[j] != nil {
				return errs[j]
			}
			res := r.Consensus
			ones := 0
			for _, v := range res.Inputs {
				ones += int(v)
			}
			fmt.Fprintf(out, "CR-%s n=%d f=%d d=%d δ=%d seed=%d inputs(1s)=%d/%d\n",
				*tr, *n, *f, *d, *delta, *seed+int64(i), ones, *n)
			fmt.Fprintf(out, "  decided=%d rounds=%d time=%d steps messages=%d crashes=%d\n",
				res.Decision, res.MaxRounds, res.TimeSteps, res.Messages, res.Crashes)
		}
	}
	return nil
}

// chunkSize bounds how many seeds are in flight at once: a few batches
// per worker keeps the pool busy without buffering the whole sweep.
func chunkSize(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(4*workers, 16)
}
