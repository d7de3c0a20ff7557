package experiments

import (
	"fmt"

	"repro/internal/assemble"
	"repro/internal/consensus"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Table2Row is one measured row of the Table 2 reproduction.
type Table2Row struct {
	Algo      string
	N, F      int
	Time      stats.Summary
	Messages  stats.Summary
	TimeExp   float64
	MsgExp    float64
	PaperTime string
	PaperMsgs string
}

// Table2Result carries the full reproduction of Table 2 (consensus under
// an oblivious adversary, f < n/2).
type Table2Result struct {
	Rows  []Table2Row
	Scale Scale
	D     int
	Delta int
}

var table2Transports = []struct {
	kind      consensus.TransportKind
	label     string
	paperTime string
	paperMsgs string
}{
	{consensus.TransportDirect, "Canetti-Rabin", "O(d+δ)", "O(n²)"},
	{consensus.TransportEARS, "CR-ears", "O(log²n·(d+δ))", "O(n·log³n·(d+δ))"},
	{consensus.TransportSEARS, "CR-sears", "O(1/ε·(d+δ))", "O(n^{1+ε}·log n·(d+δ))"},
	{consensus.TransportTEARS, "CR-tears", "O(d+δ)", "O(n^{7/4}·log²n)"},
}

// Table2 reproduces Table 2: binary randomized consensus with each
// get-core transport, measured time-to-decision and messages, plus growth
// exponents over the n sweep. f is just under n/2 (the paper's consensus
// assumption is a minority of failures).
func Table2(env Env, d, delta int) (*Table2Result, error) {
	res := &Table2Result{Scale: env.Scale, D: d, Delta: delta}
	ns := env.Scale.consensusNs()
	var points []Point
	for _, tt := range table2Transports {
		for _, n := range ns {
			points = append(points, Point{Run: assemble.Run{
				Transport: tt.kind, N: n, F: (n - 1) / 2,
				D: sim.Time(d), Delta: sim.Time(delta),
			}})
		}
	}
	ms, errs := measureGrid(points, env)
	cell := 0
	for _, tt := range table2Transports {
		var nsX, timeY, msgY []float64
		var last Measurement
		var lastN, lastF int
		for _, n := range ns {
			m, err := ms[cell], errs[cell]
			cell++
			if err != nil {
				return nil, fmt.Errorf("table2 %s n=%d: %w", tt.label, n, err)
			}
			f := (n - 1) / 2
			nsX = append(nsX, float64(n))
			timeY = append(timeY, m.Time.Mean)
			msgY = append(msgY, m.Messages.Mean)
			last, lastN, lastF = m, n, f
		}
		row := Table2Row{
			Algo: tt.label, N: lastN, F: lastF,
			Time: last.Time, Messages: last.Messages,
			PaperTime: tt.paperTime, PaperMsgs: tt.paperMsgs,
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
func (r *Table2Result) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Table 2 — consensus, oblivious adversary, f<n/2 (measured at d=%d δ=%d)", r.D, r.Delta),
		"algorithm", "n", "f", "time(steps)", "messages", "t-exp", "m-exp", "paper time", "paper messages")
	for _, row := range r.Rows {
		t.AddRow(row.Algo, row.N, row.F,
			row.Time.String(), row.Messages.String(),
			fmt.Sprintf("%.2f", row.TimeExp), fmt.Sprintf("%.2f", row.MsgExp),
			row.PaperTime, row.PaperMsgs)
	}
	t.AddNote("Canetti-Rabin should show m-exp ≈ 2; CR-ears ≈ 1 (+log); CR-tears strictly below 2 with t-exp ≈ 0.")
	return t
}

// Render formats Table2Result's table as text.
func (r *Table2Result) Render() string { return r.Table().String() }
