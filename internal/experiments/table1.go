package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/assemble"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Table1Row is one measured row of the Table 1 reproduction.
type Table1Row struct {
	Algo        string
	N, F        int
	Time        stats.Summary
	Messages    stats.Summary
	TimeExp     float64 // growth exponent of time vs n
	MsgExp      float64 // growth exponent of messages vs n
	PaperTime   string
	PaperMsgs   string
	PaperModel  string
	PaperAdvers string
}

// Table1Result carries the full reproduction of Table 1.
type Table1Result struct {
	Rows  []Table1Row
	Scale Scale
	D     int
	Delta int
}

// table1Protos lists the Table 1 algorithms with their paper-side claims.
var table1Protos = []struct {
	name      string
	paperTime string
	paperMsgs string
	model     string
	adversary string
	fFraction float64 // f as a fraction of n
	preset    string
	isSync    bool
}{
	{"sync-epidemic", "O(polylog n)", "O(n polylog n)", "Synch", "Adaptive", 0.25, adversary.PresetStandard, true},
	{"sync-deterministic", "O(polylog n)", "O(n polylog n)", "Synch", "Adaptive", 0.25, adversary.PresetStandard, true},
	{"trivial", "O(d+δ)", "Θ(n²)", "Part. Synch", "Adaptive", 0.25, adversary.PresetStandard, false},
	{"ears", "O(n/(n−f)·log²n·(d+δ))", "O(n·log³n·(d+δ))", "Part. Synch", "Oblivious", 0.25, adversary.PresetStandard, false},
	{"sears", "O(n/(ε(n−f))·(d+δ))", "O(n^{2+ε}/(ε(n−f))·log n·(d+δ))", "Part. Synch", "Oblivious", 0.25, adversary.PresetStandard, false},
	{"tears", "O(d+δ)", "O(n^{7/4}·log²n)", "Part. Synch", "Oblivious", 0.49, adversary.PresetStandard, false},
}

// Table1 reproduces Table 1: for each algorithm it measures time and
// message complexity at the largest n of the sweep and fits growth
// exponents across the sweep. Synchronous baselines run with d = δ = 1
// (which they are entitled to assume); partially synchronous algorithms
// run at the given d, δ without knowing them. The whole (algorithm × n ×
// seed) grid fans across env.Workers.
func Table1(env Env, d, delta int) (*Table1Result, error) {
	res := &Table1Result{Scale: env.Scale, D: d, Delta: delta}
	ns := env.Scale.gossipNs()
	var points []Point
	for _, tp := range table1Protos {
		for _, n := range ns {
			f := int(tp.fFraction * float64(n))
			run := assemble.Run{
				Protocol: tp.name, N: n, F: f,
				D: sim.Time(d), Delta: sim.Time(delta),
				Preset: tp.preset,
			}
			if tp.isSync {
				run.D, run.Delta = 1, 1
				run.Preset = adversary.PresetBenign
				// Synchronous baselines still face crashes; use the storm
				// (which the CK row tolerates by design).
				if f > 0 {
					run.Preset = adversary.PresetStandard
				}
			}
			points = append(points, Point{Run: run})
		}
	}
	ms, errs := measureGrid(points, env)
	cell := 0
	for _, tp := range table1Protos {
		var nsX, timeY, msgY []float64
		var last Measurement
		var lastN, lastF int
		for _, n := range ns {
			m, err := ms[cell], errs[cell]
			cell++
			if err != nil {
				return nil, fmt.Errorf("table1 %s n=%d: %w", tp.name, n, err)
			}
			f := int(tp.fFraction * float64(n))
			nsX = append(nsX, float64(n))
			timeY = append(timeY, m.Time.Mean)
			msgY = append(msgY, m.Messages.Mean)
			last, lastN, lastF = m, n, f
		}
		row := Table1Row{
			Algo: tp.name, N: lastN, F: lastF,
			Time: last.Time, Messages: last.Messages,
			PaperTime: tp.paperTime, PaperMsgs: tp.paperMsgs,
			PaperModel: tp.model, PaperAdvers: tp.adversary,
		}
		if fit, err := stats.GrowthExponent(nsX, timeY); err == nil {
			row.TimeExp = fit.Slope
		}
		if fit, err := stats.GrowthExponent(nsX, msgY); err == nil {
			row.MsgExp = fit.Slope
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the reproduction next to the paper's claims.
func (r *Table1Result) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Table 1 — gossip protocols (measured at d=%d δ=%d; exponents fitted over the n sweep)", r.D, r.Delta),
		"algorithm", "n", "f", "time(steps)", "messages", "t-exp", "m-exp", "paper time", "paper messages", "adversary")
	for _, row := range r.Rows {
		t.AddRow(row.Algo, row.N, row.F,
			row.Time.String(), row.Messages.String(),
			fmt.Sprintf("%.2f", row.TimeExp), fmt.Sprintf("%.2f", row.MsgExp),
			row.PaperTime, row.PaperMsgs, row.PaperAdvers)
	}
	t.AddNote("t-exp/m-exp: empirical growth exponents of time/messages vs n (log–log OLS).")
	t.AddNote("trivial should show m-exp ≈ 2; ears m-exp ≈ 1 (+log factors); tears m-exp between 1.5 and 2 and t-exp ≈ 0.")
	return t
}

// Render formats Table1Result's table as text.
func (r *Table1Result) Render() string { return r.Table().String() }
