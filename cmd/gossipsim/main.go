// Command gossipsim runs a single gossip simulation and prints the paper's
// complexity measures.
//
// Example:
//
//	gossipsim -proto ears -n 256 -f 64 -d 4 -delta 2 -adversary standard -seed 7
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
		fmt.Fprintln(os.Stderr, "gossipsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gossipsim", flag.ContinueOnError)
	var (
		proto   = fs.String("proto", repro.ProtoEARS, "protocol: trivial|naive|ears|sears|tears|push|pull|push-pull|average|sync-epidemic|sync-deterministic")
		n       = fs.Int("n", 128, "number of processes")
		f       = fs.Int("f", 32, "crash budget")
		d       = fs.Int("d", 2, "max message delay")
		delta   = fs.Int("delta", 2, "max scheduling gap")
		adv     = fs.String("adversary", repro.AdversaryStandard, "adversary preset: benign|standard|crashstorm|maxdelay|staggered")
		seed    = fs.Int64("seed", 1, "random seed")
		eps     = fs.Float64("epsilon", 0, "sears fan-out exponent (0 = default 0.5)")
		topo    = fs.String("topology", "", "communication graph: complete|ring|torus|random-regular|erdos-renyi|watts-strogatz|barabasi-albert (empty = complete; sparse families can be disconnected by crashes — pair with -f 0 for pure-topology runs)")
		tp1     = fs.Float64("topo-param", 0, "topology parameter (degree/p/k/m/rows; 0 = family default)")
		tp2     = fs.Float64("topo-param2", 0, "second topology parameter (watts-strogatz β; 0 = default)")
		seeds   = fs.Int("seeds", 0, "number of seeds to run (seed, seed+1, ...; default 1)")
		workers = fs.Int("workers", 0, "run the seeds concurrently on this many workers (0 = GOMAXPROCS; output is identical to serial)")
		shards  = fs.Int("shards", 0, "split each run into this many superstep shards (0/1 = serial kernel; output is identical for any value)")
		verbt   = fs.Bool("rumors", false, "print per-process rumor counts")
		tline   = fs.Bool("timeline", false, "render an ASCII space-time diagram (small n)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	count := max(*seeds, 1)
	specs := make([]repro.GossipSpec, count)
	for i := range specs {
		specs[i] = repro.GossipSpec{
			Protocol:       *proto,
			N:              *n,
			F:              *f,
			D:              *d,
			Delta:          *delta,
			Adversary:      *adv,
			Seed:           *seed + int64(i),
			Topology:       *topo,
			TopologyParam:  *tp1,
			TopologyParam2: *tp2,
		}
		specs[i].Tuning.Epsilon = *eps
		specs[i].Timeline = *tline
	}
	topoTag := ""
	if *topo != "" {
		topoTag = " topology=" + *topo
	}
	// The seeds run in chunks a few times the pool width: memory stays
	// bounded (a GossipResult holds per-process rumor sets), output
	// streams in seed order, and an error stops the sweep within a chunk
	// instead of after all remaining seeds.
	for start := 0; start < count; start += chunkSize(*workers) {
		end := min(start+chunkSize(*workers), count)
		batch, errs := repro.RunMany(context.Background(), specs[start:end],
			repro.WithWorkers(*workers), repro.WithShards(*shards))
		results := make([]*repro.GossipResult, len(batch))
		for j, r := range batch {
			if r != nil {
				results[j] = r.Gossip
			}
		}
		for j, res := range results {
			i := start + j
			// Header first, so diagnostics of a failed run attach to it.
			fmt.Fprintf(out, "proto=%s n=%d f=%d d=%d δ=%d adversary=%s%s seed=%d\n",
				*proto, *n, *f, *d, *delta, *adv, topoTag, *seed+int64(i))
			if errs[j] != nil {
				// A failed run still carries diagnostics (e.g. off-edge drops
				// explaining why a topology-unaware protocol went nowhere).
				if res != nil && res.OffEdgeDrops > 0 {
					fmt.Fprintf(out, "  off-edge drops=%d\n", res.OffEdgeDrops)
				}
				return errs[j]
			}
			fmt.Fprintf(out, "  completed=%v time=%d steps messages=%d bytes=%d crashes=%d\n",
				res.Completed, res.TimeSteps, res.Messages, res.Bytes, res.Crashes)
			if res.OffEdgeDrops > 0 {
				fmt.Fprintf(out, "  off-edge drops=%d\n", res.OffEdgeDrops)
			}
			if *verbt {
				for p, rs := range res.Rumors {
					fmt.Fprintf(out, "  process %3d: %d rumors\n", p, len(rs))
				}
			}
			if *tline {
				fmt.Fprint(out, res.Timeline)
			}
		}
	}
	return nil
}

// chunkSize bounds how many seeds are in flight (and buffered) at once:
// a few batches per worker keeps the pool busy without holding every
// result in memory.
func chunkSize(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return max(4*workers, 16)
}
