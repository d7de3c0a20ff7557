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

// EarsStagesResult records the milestone times of one ears execution,
// mirroring the stage structure of the paper's §3.2 analysis:
//
//	stage 1–2 (gathering/exchange): every live process knows every rumor;
//	stage 3  (shooting):            every rumor has been sent to everyone
//	                                (some process's L(p) covers the world);
//	stage 4–5 (shut-down entry):    the first process enters shut-down;
//	stage 6–7 (sleep):              every live process is asleep.
//
// The analysis proves these milestones occur in order within an epoch of
// length O(n/(n−f)·log²n·(d+δ)); the experiment measures where they
// actually land.
type EarsStagesResult struct {
	N, F          int
	GatheredAt    stats.Summary // all live processes hold all live rumors
	FirstAsleepAt stats.Summary // first process past its shut-down phase
	AllAsleepAt   stats.Summary // quiescence
	Messages      stats.Summary
}

// EarsStages measures the milestone times over several seeds; the seed
// grid fans across env.Workers (each cell builds its own world and probe).
func EarsStages(env Env, seed int64) (*EarsStagesResult, error) {
	n := 128
	if env.Scale == Quick {
		n = 64
	}
	f := n / 4
	res := &EarsStagesResult{N: n, F: f}

	type sample struct {
		gathered, firstAsleep, allAsleep, msgs float64
	}
	samples, errs, _ := runner.Map(context.Background(), env.seeds(),
		runner.Options{Workers: env.Workers},
		func(_ context.Context, s int) (sample, error) {
			pc, err := assemble.Build(assemble.Run{
				Protocol: core.NameEARS, N: n, F: f, D: 2, Delta: 2, Seed: seed + int64(s),
				Preset: adversary.PresetStandard,
			})
			if err != nil {
				return sample{}, err
			}
			w, err := sim.NewWorld(pc.Config, pc.Nodes, pc.Adversary)
			if err != nil {
				return sample{}, err
			}
			milestones := &earsMilestones{}
			w.SetProbe(milestones.probe)
			runRes, err := w.Run(pc.Evaluator)
			if err != nil {
				return sample{}, fmt.Errorf("stages seed %d: %w", pc.Config.Seed, err)
			}
			return sample{
				gathered:    float64(milestones.gatheredAt),
				firstAsleep: float64(milestones.firstAsleepAt),
				allAsleep:   float64(runRes.QuiesceAt),
				msgs:        float64(runRes.Messages),
			}, nil
		})
	if err := runner.FirstError(errs); err != nil {
		return nil, err
	}
	var gathered, firstAsleep, allAsleep, msgs []float64
	for _, s := range samples {
		gathered = append(gathered, s.gathered)
		firstAsleep = append(firstAsleep, s.firstAsleep)
		allAsleep = append(allAsleep, s.allAsleep)
		msgs = append(msgs, s.msgs)
	}
	res.GatheredAt = stats.Summarize(gathered)
	res.FirstAsleepAt = stats.Summarize(firstAsleep)
	res.AllAsleepAt = stats.Summarize(allAsleep)
	res.Messages = stats.Summarize(msgs)
	return res, nil
}

// earsMilestones probes the world each step for the §3.2 milestones.
type earsMilestones struct {
	gatheredAt    sim.Time
	firstAsleepAt sim.Time
	gatheredSeen  bool
	asleepSeen    bool
}

func (m *earsMilestones) probe(v sim.View) {
	if !m.gatheredSeen {
		if m.allGathered(v) {
			m.gatheredAt = v.Now()
			m.gatheredSeen = true
		}
	}
	if !m.asleepSeen {
		for p := 0; p < v.N(); p++ {
			if !v.Alive(sim.ProcID(p)) {
				continue
			}
			if n, ok := v.Node(sim.ProcID(p)).(interface{ Asleep() bool }); ok && n.Asleep() {
				m.firstAsleepAt = v.Now()
				m.asleepSeen = true
				break
			}
		}
	}
}

// allGathered reports whether every live process holds every live
// process's rumor at this instant.
func (m *earsMilestones) allGathered(v sim.View) bool {
	for p := 0; p < v.N(); p++ {
		if !v.Alive(sim.ProcID(p)) {
			continue
		}
		h, ok := v.Node(sim.ProcID(p)).(core.RumorHolder)
		if !ok {
			return false
		}
		for r := 0; r < v.N(); r++ {
			if v.Alive(sim.ProcID(r)) && !h.RumorSet().Test(r) {
				return false
			}
		}
	}
	return true
}

// Render formats the milestone table.
func (r *EarsStagesResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("ears §3.2 stage milestones (n=%d f=%d d=2 δ=2)", r.N, r.F),
		"milestone", "time(steps)")
	t.AddRow("all rumors gathered (stages 1-2)", r.GatheredAt.String())
	t.AddRow("first process asleep (stages 4-5)", r.FirstAsleepAt.String())
	t.AddRow("all processes asleep (stages 6-7)", r.AllAsleepAt.String())
	t.AddRow("messages", r.Messages.String())
	t.AddNote("the analysis proves gather < first-sleep < all-sleep within one O(n/(n−f)·log²n·(d+δ)) epoch.")
	return t
}

// Render formats EarsStagesResult's table as text.
func (r *EarsStagesResult) Render() string { return r.Table().String() }
