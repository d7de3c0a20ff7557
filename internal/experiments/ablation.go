package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/assemble"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

// DeltaSweepResult measures message complexity as a function of d (with
// δ = 1): the paper's headline structural difference between tears and the
// other protocols is that tears' message complexity has *no dependence on
// d or δ* (Theorem 12), while ears and sears pay a (d+δ) factor.
type DeltaSweepResult struct {
	Ds     []int
	Series map[string][]float64 // proto -> mean messages per d
	N, F   int
}

// DeltaSweep runs the d sweep.
func DeltaSweep(env Env) (*DeltaSweepResult, error) {
	n := 128
	ds := []int{1, 2, 4, 8, 16}
	if env.Scale == Quick {
		n = 64
		ds = []int{1, 4, 8}
	}
	f := n / 4
	res := &DeltaSweepResult{Ds: ds, Series: map[string][]float64{}, N: n, F: f}
	protos := []string{"ears", "sears", "tears"}
	var points []Point
	for _, proto := range protos {
		for _, d := range ds {
			points = append(points, Point{Run: assemble.Run{
				Protocol: proto, N: n, F: f,
				D: sim.Time(d), Delta: 1,
				Preset: adversary.PresetMaxDelay,
			}})
		}
	}
	ms, errs := measureGrid(points, env)
	cell := 0
	for _, proto := range protos {
		for _, d := range ds {
			m, err := ms[cell], errs[cell]
			cell++
			if err != nil {
				return nil, fmt.Errorf("delta sweep %s d=%d: %w", proto, d, err)
			}
			res.Series[proto] = append(res.Series[proto], m.Messages.Mean)
		}
	}
	return res, nil
}

// Render formats the sweep with per-protocol growth ratios.
func (r *DeltaSweepResult) Table() *stats.Table {
	header := []string{"protocol"}
	for _, d := range r.Ds {
		header = append(header, fmt.Sprintf("d=%d", d))
	}
	header = append(header, "growth(last/first)")
	t := stats.NewTable(
		fmt.Sprintf("Message complexity vs d (n=%d f=%d δ=1) — Theorem 12: tears is d-independent", r.N, r.F),
		header...)
	for _, proto := range []string{"ears", "sears", "tears"} {
		series := r.Series[proto]
		row := make([]interface{}, 0, len(series)+2)
		row = append(row, proto)
		for _, v := range series {
			row = append(row, int64(v))
		}
		growth := 0.0
		if len(series) > 1 && series[0] > 0 {
			growth = series[len(series)-1] / series[0]
		}
		row = append(row, fmt.Sprintf("%.2fx", growth))
		t.AddRow(row...)
	}
	t.AddNote("ears/sears message counts grow with d (the (d+δ) factor); tears saturates.")
	return t
}

// ShutdownAblationResult sweeps the ears shut-down constant:
// shorter shut-down phases save messages but risk premature sleep and
// wake-up churn; the informed-list keeps the protocol correct either way.
type ShutdownAblationResult struct {
	Cs       []float64
	Time     []stats.Summary
	Messages []stats.Summary
	N, F     int
}

// AblationShutdown runs the ShutdownC sweep for ears.
func AblationShutdown(env Env) (*ShutdownAblationResult, error) {
	n := 128
	if env.Scale == Quick {
		n = 64
	}
	f := n / 4
	res := &ShutdownAblationResult{Cs: []float64{0.5, 1, 2, 6, 12}, N: n, F: f}
	points := make([]Point, len(res.Cs))
	for i, c := range res.Cs {
		points[i] = Point{Run: assemble.Run{
			Protocol: "ears", N: n, F: f, D: 2, Delta: 2,
			Preset: adversary.PresetStandard,
			Gossip: core.Params{ShutdownC: c},
		}}
	}
	ms, errs := measureGrid(points, env)
	for i, c := range res.Cs {
		if errs[i] != nil {
			return nil, fmt.Errorf("shutdown ablation c=%v: %w", c, errs[i])
		}
		res.Time = append(res.Time, ms[i].Time)
		res.Messages = append(res.Messages, ms[i].Messages)
	}
	return res, nil
}

// Render formats the sweep.
func (r *ShutdownAblationResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation — ears shut-down phase length Θ(c·n/(n−f)·log n) (n=%d f=%d)", r.N, r.F),
		"c", "time(steps)", "messages")
	for i, c := range r.Cs {
		t.AddRow(c, r.Time[i].String(), r.Messages[i].String())
	}
	t.AddNote("small c: processes sleep early and must be reawakened (churn); large c: longer tail of shut-down messages.")
	return t
}

// EpsilonAblationResult sweeps sears' ε: Theorem 7 trades a 1/ε time
// factor against an n^ε message factor.
type EpsilonAblationResult struct {
	Epsilons []float64
	Time     []stats.Summary
	Messages []stats.Summary
	N, F     int
}

// AblationEpsilon runs the sears ε sweep.
func AblationEpsilon(env Env) (*EpsilonAblationResult, error) {
	n := 128
	if env.Scale == Quick {
		n = 64
	}
	f := n / 4
	res := &EpsilonAblationResult{Epsilons: []float64{0.25, 0.4, 0.5, 0.75}, N: n, F: f}
	points := make([]Point, len(res.Epsilons))
	for i, eps := range res.Epsilons {
		points[i] = Point{Run: assemble.Run{
			Protocol: "sears", N: n, F: f, D: 2, Delta: 2,
			Preset: adversary.PresetStandard,
			Gossip: core.Params{Epsilon: eps},
		}}
	}
	ms, errs := measureGrid(points, env)
	for i, eps := range res.Epsilons {
		if errs[i] != nil {
			return nil, fmt.Errorf("epsilon ablation ε=%v: %w", eps, errs[i])
		}
		res.Time = append(res.Time, ms[i].Time)
		res.Messages = append(res.Messages, ms[i].Messages)
	}
	return res, nil
}

// Render formats the sweep.
func (r *EpsilonAblationResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation — sears fan-out exponent ε (n=%d f=%d): time 1/ε vs messages n^ε", r.N, r.F),
		"ε", "time(steps)", "messages")
	for i, e := range r.Epsilons {
		t.AddRow(e, r.Time[i].String(), r.Messages[i].String())
	}
	return t
}

// CoinAblationResult compares the common coin against Ben-Or local coins:
// round counts and decision times.
type CoinAblationResult struct {
	Coins    []string
	Time     []stats.Summary
	Messages []stats.Summary
	N, F     int
}

// AblationCoin runs the coin comparison on the direct transport. f is
// n/4 rather than the maximal minority: at f = ⌈n/2⌉−1 a crash storm can
// leave exactly ⌊n/2⌋+1 survivors, where the local coin needs *unanimous*
// independent flips to decide — expected 2^Ω(n) rounds, the Ben-Or
// pathology. The comparison stays meaningful (and bounded) away from that
// cliff; the cliff itself is documented by BenchmarkAblationCoin's
// timeout-rate metric.
func AblationCoin(env Env) (*CoinAblationResult, error) {
	n := 32
	if env.Scale == Quick {
		n = 16
	}
	f := n / 4
	res := &CoinAblationResult{Coins: []string{"common", "local"}, N: n, F: f}
	// A perfect 0/1 split denies the first round a majority, so every
	// undecided process reaches the coin — the case where the coin
	// flavors actually differ.
	split := make([]uint8, n)
	for q := range split {
		split[q] = uint8(q % 2)
	}
	points := make([]Point, len(res.Coins))
	for i, coin := range res.Coins {
		points[i] = Point{Run: assemble.Run{
			Transport: consensus.TransportDirect, N: n, F: f,
			D: 2, Delta: 2,
			Preset:    adversary.PresetStandard,
			LocalCoin: coin == "local",
			Inputs:    split,
		}, Seeds: env.seeds() + 2}
	}
	ms, errs := measureGrid(points, env)
	for i, coin := range res.Coins {
		if errs[i] != nil {
			return nil, fmt.Errorf("coin ablation %s: %w", coin, errs[i])
		}
		res.Time = append(res.Time, ms[i].Time)
		res.Messages = append(res.Messages, ms[i].Messages)
	}
	return res, nil
}

// Render formats the comparison.
func (r *CoinAblationResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation — shared coin flavor (Canetti-Rabin, direct transport, n=%d f=%d)", r.N, r.F),
		"coin", "time-to-decide(steps)", "messages")
	for i, c := range r.Coins {
		t.AddRow(c, r.Time[i].String(), r.Messages[i].String())
	}
	t.AddNote("the common coin decides in O(1) expected rounds; local coins (Ben-Or) pay more rounds as n grows.")
	return t
}

// Render formats DeltaSweepResult's table as text.
func (r *DeltaSweepResult) Render() string { return r.Table().String() }

// Render formats ShutdownAblationResult's table as text.
func (r *ShutdownAblationResult) Render() string { return r.Table().String() }

// Render formats EpsilonAblationResult's table as text.
func (r *EpsilonAblationResult) Render() string { return r.Table().String() }

// Render formats CoinAblationResult's table as text.
func (r *CoinAblationResult) Render() string { return r.Table().String() }
