package consensus_test

import (
	"runtime"
	"testing"

	"repro/internal/adversary"
	"repro/internal/assemble"
	"repro/internal/consensus"
	"repro/internal/sim"
)

// BenchmarkConsensusTEARS runs one tears consensus run per iteration, in
// the shape of the consensus_tears benchmark workload: n=128, f=63,
// d=δ=2, the standard adversary, seeds 1..12 in turn. Construction is
// timed with the run, as in the workload. It reports ns, allocations and
// bytes per message, the per-Step cost of the consensus layer and the gossip
// nodes it embeds.
func BenchmarkConsensusTEARS(b *testing.B) {
	var msgs int64
	var before, after runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		pc, err := assemble.Build(assemble.Run{
			Transport: consensus.TransportTEARS, N: 128, F: 63, D: 2, Delta: 2,
			Seed: 1 + int64(i%12), Preset: adversary.PresetStandard,
		})
		if err != nil {
			b.Fatal(err)
		}
		w, err := sim.NewWorld(pc.Config, pc.Nodes, pc.Adversary)
		if err != nil {
			b.Fatal(err)
		}
		res, err := w.Run(pc.Evaluator)
		if err != nil {
			b.Fatal(err)
		}
		msgs += res.Messages
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(msgs), "allocs/msg")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(msgs), "B/msg")
}
