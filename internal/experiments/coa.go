package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/assemble"
	"repro/internal/stats"
)

// CoARow compares one asynchronous algorithm against the best synchronous
// baseline at the same (n, f), realizing Corollary 2's cost-of-asynchrony
// ratios.
type CoARow struct {
	Proto     string
	N, F      int
	TimeRatio float64 // T_async / T_sync-best
	MsgRatio  float64 // M_async / M_sync-best
	// Corollary 2: TimeRatio = Ω(f) or MsgRatio = Ω(1 + f²/n).
	TimeBound float64 // f (up to constants)
	MsgBound  float64 // 1 + f²/n
}

// CoAResult is the Corollary 2 reproduction.
type CoAResult struct {
	Rows      []CoARow
	SyncTime  stats.Summary
	SyncMsgs  stats.Summary
	SyncProto string
}

// CostOfAsynchrony reproduces Corollary 2. The synchronous baseline runs
// with d = δ = 1 known (so it stops after a fixed round count); each
// asynchronous algorithm runs in the same d = δ = 1 world — but, not
// knowing the bounds, must buy its stopping guarantee with extra time or
// messages. The measured ratios witness the corollary's disjunction
// qualitatively: at f = Θ(n), asynchronous gossip pays a Θ(f) time factor
// or a Θ(1+f²/n) message factor over the synchronous optimum.
func CostOfAsynchrony(env Env) (*CoAResult, error) {
	n := 256
	if env.Scale == Quick {
		n = 128
	}
	f := n / 4

	// One grid: the synchronous baseline plus every asynchronous protocol,
	// all in the same d = δ = 1 world.
	asyncProtos := []string{"trivial", "ears", "sears", "tears"}
	var points []Point
	for _, proto := range append([]string{"sync-epidemic"}, asyncProtos...) {
		points = append(points, Point{Run: assemble.Run{
			Protocol: proto, N: n, F: f, D: 1, Delta: 1,
			Preset: adversary.PresetStandard,
		}})
	}
	ms, errs := measureGrid(points, env)
	if errs[0] != nil {
		return nil, fmt.Errorf("coa sync baseline: %w", errs[0])
	}
	syncM := ms[0]
	res := &CoAResult{SyncTime: syncM.Time, SyncMsgs: syncM.Messages, SyncProto: "sync-epidemic"}

	for i, proto := range asyncProtos {
		m, err := ms[i+1], errs[i+1]
		if err != nil {
			return nil, fmt.Errorf("coa %s: %w", proto, err)
		}
		row := CoARow{
			Proto: proto, N: n, F: f,
			TimeBound: float64(f),
			MsgBound:  1 + float64(f)*float64(f)/float64(n),
		}
		if syncM.Time.Mean > 0 {
			row.TimeRatio = m.Time.Mean / syncM.Time.Mean
		}
		if syncM.Messages.Mean > 0 {
			row.MsgRatio = m.Messages.Mean / syncM.Messages.Mean
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the comparison.
func (r *CoAResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Corollary 2 — cost of asynchrony vs %s (time %s steps, %s msgs)",
			r.SyncProto, r.SyncTime.String(), r.SyncMsgs.String()),
		"algorithm", "n", "f", "time-ratio", "msg-ratio", "Ω time-bound (f)", "Ω msg-bound (1+f²/n)")
	for _, row := range r.Rows {
		t.AddRow(row.Proto, row.N, row.F,
			fmt.Sprintf("%.2f", row.TimeRatio), fmt.Sprintf("%.2f", row.MsgRatio),
			row.TimeBound, fmt.Sprintf("%.1f", row.MsgBound))
	}
	t.AddNote("Corollary 2 is worst-case over adversaries; these ratios are under the standard oblivious")
	t.AddNote("adversary and show the benign-case gap. The adversarial gap is witnessed by Figure 1.")
	return t
}

// Render formats CoAResult's table as text.
func (r *CoAResult) Render() string { return r.Table().String() }
