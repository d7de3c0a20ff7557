// Command lowerbound runs the Theorem 1 adaptive adversary (the paper's
// Figure 1 construction) against a gossip protocol, printing which side of
// the Ω(n+f²)-messages / Ω(f(d+δ))-time dichotomy the adversary forced.
//
// Example:
//
//	lowerbound -proto ears -n 256 -f 64 -sweep
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lowerbound:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lowerbound", flag.ContinueOnError)
	var (
		proto  = fs.String("proto", repro.ProtoEARS, "protocol: trivial|ears|sears|tears")
		n      = fs.Int("n", 256, "number of processes")
		f      = fs.Int("f", 64, "failure budget (strategy caps at n/4)")
		seed   = fs.Int64("seed", 1, "random seed")
		trials = fs.Int("trials", 32, "Monte Carlo trials per classified process")
		sweep  = fs.Bool("sweep", false, "sweep f over powers of two up to -f")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	budgets := []int{*f}
	if *sweep {
		budgets = budgets[:0]
		for b := 8; b <= *f; b *= 2 {
			budgets = append(budgets, b)
		}
		if len(budgets) == 0 {
			return fmt.Errorf("-sweep starts at f=8, so -f %d leaves nothing to run", *f)
		}
	}
	for _, budget := range budgets {
		res, err := repro.Run(context.Background(), repro.LowerBoundSpec{
			Protocol: *proto, N: *n, F: budget, Seed: *seed, Trials: *trials,
		})
		if err != nil {
			return err
		}
		rep := *res.LowerBound
		fmt.Fprintf(out, "%s n=%d: %s satisfied=%v\n", *proto, *n, rep, rep.Satisfied())
	}
	return nil
}
