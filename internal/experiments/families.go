package experiments

import (
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/assemble"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topology"
)

// PushPullSweepResult is the Panagiotou–Speidel N·p sweep run on the
// protocols their result is actually about: single-rumor push, pull and
// push-pull on Erdős–Rényi graphs G(n, c·ln n/n) as edge density scales
// away from the connectivity threshold. Their theorem: asynchronous
// push-pull spreading time is essentially independent of p in the
// connected regime, while the synchronous variants pay a density factor
// near the threshold. The observable regime shift here: all three
// variants' completion times flatten quickly in c, and pull's long
// solicitation tail (the one regime where uninformed processes do the
// work) shrinks fastest as density rises.
type PushPullSweepResult struct {
	N  int
	Cs []float64 // p = c·ln n / n multipliers
	// MeanDeg[i] is n·p for the swept point.
	MeanDeg []float64
	// Time and Messages are indexed [variant][point].
	Variants []string
	Time     map[string][]stats.Summary
	Messages map[string][]stats.Summary
}

// PushPullSweep runs the density sweep. c starts at 2: below that the
// sampled G(n, p) instances are not reliably connected, and a disconnected
// graph fails the spreading promise by construction rather than measuring
// anything about the protocol.
func PushPullSweep(env Env) (*PushPullSweepResult, error) {
	n := 64
	cs := []float64{2, 4, 8}
	if env.Scale == Full {
		n = 256
		cs = []float64{2, 4, 8, 16}
	}
	variants := []string{"push", "pull", "push-pull"}
	res := &PushPullSweepResult{
		N: n, Cs: cs, Variants: variants,
		Time:     map[string][]stats.Summary{},
		Messages: map[string][]stats.Summary{},
	}
	logn := math.Log(float64(n))
	var points []Point
	for _, c := range cs {
		p := c * logn / float64(n)
		if p > 1 {
			p = 1
		}
		res.MeanDeg = append(res.MeanDeg, p*float64(n))
		for _, proto := range variants {
			points = append(points, Point{Run: assemble.Run{
				Protocol: proto, N: n, F: 0, D: 2, Delta: 2,
				Preset:   adversary.PresetStandard,
				Topology: topology.Spec{Family: topology.FamilyErdosRenyi, Param: p},
			}})
		}
	}
	ms, errs := measureGrid(points, env)
	cell := 0
	for _, c := range cs {
		for _, proto := range variants {
			m, err := ms[cell], errs[cell]
			cell++
			if err != nil {
				return nil, fmt.Errorf("push-pull sweep %s c=%.1f: %w", proto, c, err)
			}
			res.Time[proto] = append(res.Time[proto], m.Time)
			res.Messages[proto] = append(res.Messages[proto], m.Messages)
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r *PushPullSweepResult) Table() *stats.Table {
	header := []string{"variant"}
	for i, c := range r.Cs {
		header = append(header, fmt.Sprintf("c=%.0f (deg %.0f)", c, r.MeanDeg[i]))
	}
	t := stats.NewTable(
		fmt.Sprintf("push/pull/push-pull time on G(n, c·ln n/n) at n=%d (Panagiotou–Speidel regime)", r.N),
		header...)
	for _, proto := range r.Variants {
		row := make([]interface{}, 0, len(r.Cs)+1)
		row = append(row, proto)
		for _, s := range r.Time[proto] {
			row = append(row, s.String())
		}
		t.AddRow(row...)
	}
	t.AddNote("asynchronous spreading time is density-insensitive once c clears the connectivity threshold; pull's solicitation tail shrinks fastest with density.")
	return t
}

// Render formats the sweep as text.
func (r *PushPullSweepResult) Render() string { return r.Table().String() }

// AveragingCurveResult is the diffusion-time curve for sum-weight
// averaging: time to ε-consensus as ε tightens, on the clique under the
// standard adversary. The non-asymptotic bound (Picard et al. style) is
// linear in log(1/ε): each information-spreading epoch contracts the
// worst-case estimate error by a constant factor, so halving ε costs a
// constant number of extra epochs — which is exactly the protocol's round
// budget R = ⌈c·(log₂ n + log₂⌈1/ε⌉)⌉.
type AveragingCurveResult struct {
	N        int
	Epsilons []float64
	Time     []stats.Summary
	Messages []stats.Summary
	// Rounds[i] is the per-process budget R the protocol derived for ε_i.
	Rounds []int
}

// AveragingCurve runs the ε sweep.
func AveragingCurve(env Env) (*AveragingCurveResult, error) {
	n := 64
	eps := []float64{1e-1, 1e-2, 1e-3}
	if env.Scale == Full {
		n = 256
		eps = []float64{1e-1, 1e-2, 1e-3, 1e-4}
	}
	res := &AveragingCurveResult{N: n, Epsilons: eps}
	points := make([]Point, len(eps))
	for i, e := range eps {
		points[i] = Point{Run: assemble.Run{
			Protocol: "average", N: n, F: 0, D: 2, Delta: 2,
			Preset: adversary.PresetStandard,
			Gossip: core.Params{AvgEpsilon: e},
		}}
	}
	ms, errs := measureGrid(points, env)
	for i, e := range eps {
		if errs[i] != nil {
			return nil, fmt.Errorf("averaging curve ε=%g: %w", e, errs[i])
		}
		res.Time = append(res.Time, ms[i].Time)
		res.Messages = append(res.Messages, ms[i].Messages)
		p := points[i].Gossip
		p.N = n
		res.Rounds = append(res.Rounds, p.WithDefaults().AvgRounds())
	}
	return res, nil
}

// Table renders the curve.
func (r *AveragingCurveResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("averaging diffusion time vs ε at n=%d (time to ε-consensus is linear in log 1/ε)", r.N),
		"ε", "rounds R", "time(steps)", "messages")
	for i, e := range r.Epsilons {
		t.AddRow(fmt.Sprintf("%g", e), r.Rounds[i], r.Time[i].String(), r.Messages[i].String())
	}
	t.AddNote("R grows by a constant per halving of ε; messages are exactly n·R on the clique.")
	return t
}

// Render formats the curve as text.
func (r *AveragingCurveResult) Render() string { return r.Table().String() }
