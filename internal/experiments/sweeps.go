package experiments

import (
	"fmt"

	"repro/internal/adversary"
	"repro/internal/assemble"
	"repro/internal/sim"
	"repro/internal/stats"
)

// SchedSweepResult measures message complexity as a function of δ (with
// d = 1). The structural expectation differs from the d axis: tears'
// trigger events spread across more steps as δ grows, so its count rises
// and then *saturates* below the (d,δ)-independent Theorem 12 ceiling,
// while ears is flat on this axis (its per-process local-step budget
// Θ(n/(n−f)·log²n) does not involve δ; only the d axis inflates it by
// keeping processes stepping while messages are in flight).
type SchedSweepResult struct {
	Deltas []int
	Series map[string][]float64
	N, F   int
}

// SchedSweep runs the δ sweep.
func SchedSweep(env Env) (*SchedSweepResult, error) {
	n := 128
	deltas := []int{1, 2, 4, 8, 16}
	if env.Scale == Quick {
		n = 64
		deltas = []int{1, 4, 8}
	}
	f := n / 4
	res := &SchedSweepResult{Deltas: deltas, Series: map[string][]float64{}, N: n, F: f}
	protos := []string{"ears", "sears", "tears"}
	var points []Point
	for _, proto := range protos {
		for _, delta := range deltas {
			points = append(points, Point{Run: assemble.Run{
				Protocol: proto, N: n, F: f,
				D: 1, Delta: sim.Time(delta),
				Preset: adversary.PresetStandard,
			}})
		}
	}
	ms, errs := measureGrid(points, env)
	cell := 0
	for _, proto := range protos {
		for _, delta := range deltas {
			m, err := ms[cell], errs[cell]
			cell++
			if err != nil {
				return nil, fmt.Errorf("sched sweep %s δ=%d: %w", proto, delta, err)
			}
			res.Series[proto] = append(res.Series[proto], m.Messages.Mean)
		}
	}
	return res, nil
}

// Render formats the sweep.
func (r *SchedSweepResult) Table() *stats.Table {
	header := []string{"protocol"}
	for _, d := range r.Deltas {
		header = append(header, fmt.Sprintf("δ=%d", d))
	}
	header = append(header, "tail-growth")
	t := stats.NewTable(
		fmt.Sprintf("Message complexity vs δ (n=%d f=%d d=1) — tears saturates below its δ-independent ceiling", r.N, r.F),
		header...)
	for _, proto := range []string{"ears", "sears", "tears"} {
		series := r.Series[proto]
		row := make([]interface{}, 0, len(series)+2)
		row = append(row, proto)
		for _, v := range series {
			row = append(row, int64(v))
		}
		row = append(row, fmt.Sprintf("%.2fx", tailGrowth(series)))
		t.AddRow(row...)
	}
	t.AddNote("tail-growth compares the last two δ points; ≈1.00x means saturation.")
	return t
}

// tailGrowth is the ratio of the last two points of a series (1 if
// undefined).
func tailGrowth(series []float64) float64 {
	if len(series) < 2 || series[len(series)-2] == 0 {
		return 1
	}
	return series[len(series)-1] / series[len(series)-2]
}

// FSweepResult measures ears completion time as a function of f at fixed
// n: Theorem 6's n/(n−f) survivor factor. As f approaches n the time
// must blow up like 1/(1−f/n).
type FSweepResult struct {
	Fs       []int
	Time     []stats.Summary
	Messages []stats.Summary
	// SurvivorFactor[i] = n/(n−f_i), the theory curve up to constants.
	SurvivorFactor []float64
	N              int
}

// FSweep runs the failure sweep for ears under the crash-storm adversary
// (all crashes at t=0, which realizes the n/(n−f) regime exactly: only
// n−f processes ever participate, and random targets hit a live process
// with probability (n−f)/n).
func FSweep(env Env) (*FSweepResult, error) {
	n := 128
	if env.Scale == Quick {
		n = 64
	}
	fs := []int{0, n / 4, n / 2, 3 * n / 4, 7 * n / 8}
	res := &FSweepResult{Fs: fs, N: n}
	points := make([]Point, len(fs))
	for i, f := range fs {
		points[i] = Point{Run: assemble.Run{
			Protocol: "ears", N: n, F: f, D: 2, Delta: 2,
			Preset: adversary.PresetCrashStorm,
		}}
	}
	ms, errs := measureGrid(points, env)
	for i, f := range fs {
		if errs[i] != nil {
			return nil, fmt.Errorf("f sweep f=%d: %w", f, errs[i])
		}
		res.Time = append(res.Time, ms[i].Time)
		res.Messages = append(res.Messages, ms[i].Messages)
		res.SurvivorFactor = append(res.SurvivorFactor, float64(n)/float64(n-f))
	}
	return res, nil
}

// Render formats the sweep.
func (r *FSweepResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("ears time vs f at n=%d (Theorem 6's n/(n−f) factor; crash storm at t=0)", r.N),
		"f", "n/(n−f)", "time(steps)", "messages")
	for i, f := range r.Fs {
		t.AddRow(f, fmt.Sprintf("%.2f", r.SurvivorFactor[i]), r.Time[i].String(), r.Messages[i].String())
	}
	t.AddNote("time should track the n/(n−f) column (up to the shared log²n(d+δ) factor).")
	return t
}

// CrossoverResult locates the n beyond which ears sends fewer messages
// than trivial gossip — the practical content of Table 1's first two
// asynchronous rows.
type CrossoverResult struct {
	Ns      []int
	Trivial []float64
	EARS    []float64
	// CrossoverN is the first swept n where ears wins (0 if never).
	CrossoverN int
}

// Crossover runs the comparison sweep.
func Crossover(env Env) (*CrossoverResult, error) {
	ns := []int{32, 64, 128, 256, 512}
	if env.Scale == Quick {
		ns = []int{32, 64, 128}
	}
	res := &CrossoverResult{Ns: ns}
	var points []Point
	for _, n := range ns {
		for _, proto := range []string{"trivial", "ears"} {
			points = append(points, Point{Run: assemble.Run{
				Protocol: proto, N: n, F: n / 4, D: 2, Delta: 2,
				Preset: adversary.PresetStandard,
			}})
		}
	}
	ms, errs := measureGrid(points, env)
	cell := 0
	for _, n := range ns {
		for _, proto := range []string{"trivial", "ears"} {
			m, err := ms[cell], errs[cell]
			cell++
			if err != nil {
				return nil, fmt.Errorf("crossover %s n=%d: %w", proto, n, err)
			}
			if proto == "trivial" {
				res.Trivial = append(res.Trivial, m.Messages.Mean)
			} else {
				res.EARS = append(res.EARS, m.Messages.Mean)
			}
		}
		if res.CrossoverN == 0 && res.EARS[len(res.EARS)-1] < res.Trivial[len(res.Trivial)-1] {
			res.CrossoverN = n
		}
	}
	return res, nil
}

// Render formats the comparison.
func (r *CrossoverResult) Table() *stats.Table {
	t := stats.NewTable(
		"ears vs trivial message crossover (f=n/4, d=δ=2)",
		"n", "trivial msgs (Θ(n²))", "ears msgs (O(n log³n(d+δ)))", "winner")
	for i, n := range r.Ns {
		winner := "trivial"
		if r.EARS[i] < r.Trivial[i] {
			winner = "ears"
		}
		t.AddRow(n, int64(r.Trivial[i]), int64(r.EARS[i]), winner)
	}
	if r.CrossoverN > 0 {
		t.AddNote("ears overtakes trivial at n ≈ %d in this configuration.", r.CrossoverN)
	} else {
		t.AddNote("no crossover within the swept range.")
	}
	return t
}

// Render formats SchedSweepResult's table as text.
func (r *SchedSweepResult) Render() string { return r.Table().String() }

// Render formats FSweepResult's table as text.
func (r *FSweepResult) Render() string { return r.Table().String() }

// Render formats CrossoverResult's table as text.
func (r *CrossoverResult) Render() string { return r.Table().String() }
