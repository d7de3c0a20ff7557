package experiments

import (
	"context"
	"fmt"

	"repro/internal/adversary"
	"repro/internal/assemble"
	"repro/internal/core"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
)

// RumorLatencyResult reports the distribution of per-rumor dissemination
// latency: for each rumor r, the time until every live process had
// learned r. This is the per-rumor view that connects the paper's
// all-rumors gossip bound to the single-rumor spreading literature it
// cites (Karp et al. [19]: one rumor spreads in O(log n) rounds).
type RumorLatencyResult struct {
	Proto   string
	N, F    int
	Latency stats.Summary // over rumors: time to full coverage
	PerSeed int
}

// RumorLatency measures per-rumor spread latencies for a protocol; the
// seed grid fans across env.Workers and latencies are collected in seed
// order.
func RumorLatency(proto string, env Env, seed int64) (*RumorLatencyResult, error) {
	n := 128
	if env.Scale == Quick {
		n = 64
	}
	f := 0 // failure-free so every rumor must reach every process
	res := &RumorLatencyResult{Proto: proto, N: n, F: f}

	perSeed, errs, _ := runner.Map(context.Background(), env.seeds(),
		runner.Options{Workers: env.Workers},
		func(_ context.Context, s int) ([]float64, error) {
			pc, err := assemble.Build(assemble.Run{
				Protocol: proto, N: n, F: f, D: 2, Delta: 2, Seed: seed + int64(s),
				Preset: adversary.PresetStandard,
			})
			if err != nil {
				return nil, err
			}
			w, err := sim.NewWorld(pc.Config, pc.Nodes, pc.Adversary)
			if err != nil {
				return nil, err
			}
			if _, err := w.Run(pc.Evaluator); err != nil {
				return nil, fmt.Errorf("latency %s seed %d: %w", proto, pc.Config.Seed, err)
			}
			// Latency of rumor r = max over processes of acquisition time.
			lat := make([]float64, 0, n)
			for r := 0; r < n; r++ {
				var worst sim.Time
				for q := 0; q < n; q++ {
					h := pc.Nodes[q].(core.RumorHolder)
					if at := h.RumorAcquiredAt(sim.ProcID(r)); at > worst {
						worst = at
					}
				}
				lat = append(lat, float64(worst))
			}
			return lat, nil
		})
	if err := runner.FirstError(errs); err != nil {
		return nil, err
	}
	var lat []float64
	for _, l := range perSeed {
		lat = append(lat, l...)
	}
	res.Latency = stats.Summarize(lat)
	res.PerSeed = n
	return res, nil
}

// RumorLatencyTables runs the latency measurement across protocols and
// returns the assembled table.
func RumorLatencyTables(env Env, seed int64) (*stats.Table, error) {
	t := stats.NewTable(
		"Per-rumor dissemination latency (failure-free, d=2 δ=2; cf. Karp et al. [19])",
		"protocol", "mean", "median", "max", "n")
	for _, proto := range []string{"trivial", "ears", "sears"} {
		res, err := RumorLatency(proto, env, seed)
		if err != nil {
			return nil, err
		}
		t.AddRow(proto,
			fmt.Sprintf("%.1f", res.Latency.Mean),
			fmt.Sprintf("%.1f", res.Latency.Median),
			fmt.Sprintf("%.0f", res.Latency.Max),
			res.N)
	}
	t.AddNote("tears is excluded: majority gossip does not promise full per-rumor coverage.")
	return t, nil
}
