package experiments

import (
	"fmt"
	"math"

	"repro/internal/adversary"
	"repro/internal/stats"
	"repro/internal/topology"
)

// topoPoint is one (protocol, family) cell of the topology sweep.
type topoPoint struct {
	Proto    string
	Family   string
	Degree   float64 // mean degree of the generated graph (n for complete)
	M        Measurement
	Complete float64 // fraction of runs whose evaluator accepted
}

// TopologySweepResult measures time and message complexity of the three
// asynchronous protocols across graph families. The paper's protocols are
// designed for the clique; the sweep quantifies what survives off it:
// ears still achieves full gossip on every connected topology (its
// informed-list termination is topology-agnostic, only slower on
// high-diameter graphs), while tears' majority-gossip promise degrades on
// sparse families whose neighborhoods are smaller than its √n·log n
// audiences — a completion-rate column makes that visible rather than an
// error.
type TopologySweepResult struct {
	N      int
	Points []topoPoint
}

// topoFamilies are the swept families (complete is the clique baseline).
func topoFamilies() []string {
	return []string{
		topology.FamilyComplete,
		topology.FamilyRing,
		topology.FamilyTorus,
		topology.FamilyRandomRegular,
		topology.FamilyErdosRenyi,
		topology.FamilyWattsStrogatz,
		topology.FamilyBarabasiAlbert,
	}
}

// TopologySweep runs the sweep. Failures are kept: f = 0 so that sparse
// graphs stay connected and the measured axis is purely topological (a
// crash disconnects a ring, which is a different experiment — see the
// adversary sweeps for the crash axis).
func TopologySweep(env Env, seed int64) (*TopologySweepResult, error) {
	n := 64
	if env.Scale == Full {
		n = 128
	}
	res := &TopologySweepResult{N: n}
	protos := []string{"ears", "sears", "tears"}

	// Mean degree is averaged over the same per-seed graph instances the
	// measurements below actually run on (measureGossipGrid generates the
	// graph from the run seed, 0..Seeds-1). Graph generation is cheap next
	// to the simulations, so it stays serial.
	degrees := map[string]float64{}
	for _, family := range topoFamilies() {
		meanDeg := float64(n)
		if family != topology.FamilyComplete {
			meanDeg = 0
			for s := int64(0); s < int64(env.seeds()); s++ {
				g, err := topology.Build(topology.Spec{Family: family, N: n, Seed: s})
				if err != nil {
					return nil, fmt.Errorf("topology sweep %s: %w", family, err)
				}
				meanDeg += 2 * float64(g.Edges()) / float64(n)
			}
			meanDeg /= float64(env.seeds())
		}
		degrees[family] = meanDeg
	}

	var specs []GossipSpec
	for _, family := range topoFamilies() {
		for _, proto := range protos {
			specs = append(specs, GossipSpec{
				Proto: proto, N: n, F: 0, D: 2, Delta: 2,
				Preset: adversary.PresetStandard, Seeds: env.seeds(),
				Topology: family,
			})
		}
	}
	ms, errs := measureGossipGrid(specs, env)
	cell := 0
	for _, family := range topoFamilies() {
		for _, proto := range protos {
			m, err := ms[cell], errs[cell]
			cell++
			// An all-runs-failed point is data (the protocol's promise does
			// not hold on that family), not a harness error.
			if err != nil && !(m.Runs > 0 && m.Failures == m.Runs) {
				return nil, fmt.Errorf("topology sweep %s on %s: %w", proto, family, err)
			}
			res.Points = append(res.Points, topoPoint{
				Proto:    proto,
				Family:   family,
				Degree:   degrees[family],
				M:        m,
				Complete: float64(m.Runs-m.Failures) / float64(m.Runs),
			})
		}
	}
	return res, nil
}

// Table renders the sweep.
func (r *TopologySweepResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Gossip across graph families (n=%d f=0 d=δ=2, standard adversary)", r.N),
		"protocol", "topology", "mean-deg", "time(steps)", "messages", "completion")
	for _, p := range r.Points {
		timeCell, msgCell := "—", "—"
		if p.Complete > 0 {
			timeCell = p.M.Time.String()
			msgCell = p.M.Messages.String()
		}
		t.AddRow(p.Proto, p.Family, fmt.Sprintf("%.1f", p.Degree),
			timeCell, msgCell, fmt.Sprintf("%d%%", int(p.Complete*100)))
	}
	t.AddNote("completion < 100%% marks families where the protocol's promise (full or majority gossip) fails; tears' √n·log n audiences need dense neighborhoods.")
	return t
}

// Render formats the sweep as text.
func (r *TopologySweepResult) Render() string { return r.Table().String() }

// NPSweepResult is the Panagiotou–Speidel-style N·p sweep: rumor spreading
// on Erdős–Rényi graphs G(n, p) as edge density scales through the
// connectivity threshold p = ln n / n. Their result for asynchronous
// push-pull: spreading time is essentially independent of p in the
// connected regime (unlike the synchronous case, which pays a 1/p-ish
// factor near the threshold). The analogue here: ears completion time on
// G(n, c·ln n/n) flattens quickly in c, while message complexity stays
// within a constant factor of the clique.
type NPSweepResult struct {
	N  int
	Cs []float64 // p = c·ln n / n multipliers
	// MeanDeg[i] is n·p for the swept point.
	MeanDeg  []float64
	Time     []stats.Summary
	Messages []stats.Summary
}

// NPSweep runs the Erdős–Rényi density sweep for ears.
func NPSweep(env Env, seed int64) (*NPSweepResult, error) {
	n := 64
	cs := []float64{1.2, 2, 4, 8}
	if env.Scale == Full {
		n = 256
		cs = []float64{1.2, 2, 4, 8, 16}
	}
	res := &NPSweepResult{N: n, Cs: cs}
	logn := math.Log(float64(n))
	ps := make([]float64, len(cs))
	specs := make([]GossipSpec, len(cs))
	for i, c := range cs {
		p := c * logn / float64(n)
		if p > 1 {
			p = 1
		}
		ps[i] = p
		specs[i] = GossipSpec{
			Proto: "ears", N: n, F: 0, D: 2, Delta: 2,
			Preset: adversary.PresetStandard, Seeds: env.seeds(),
			Topology: topology.FamilyErdosRenyi, TopoParam: p,
		}
	}
	ms, errs := measureGossipGrid(specs, env)
	for i, c := range cs {
		if errs[i] != nil {
			return nil, fmt.Errorf("np sweep c=%.1f: %w", c, errs[i])
		}
		res.MeanDeg = append(res.MeanDeg, ps[i]*float64(n))
		res.Time = append(res.Time, ms[i].Time)
		res.Messages = append(res.Messages, ms[i].Messages)
	}
	return res, nil
}

// Table renders the sweep.
func (r *NPSweepResult) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("ears on G(n, c·ln n/n) at n=%d (Panagiotou–Speidel N·p sweep)", r.N),
		"c", "n·p (mean deg)", "time(steps)", "messages")
	for i, c := range r.Cs {
		t.AddRow(fmt.Sprintf("%.1f", c), fmt.Sprintf("%.1f", r.MeanDeg[i]),
			r.Time[i].String(), r.Messages[i].String())
	}
	t.AddNote("time should flatten once c clears the connectivity threshold (c=1): asynchronous spreading is density-insensitive in the connected regime.")
	return t
}

// Render formats the sweep as text.
func (r *NPSweepResult) Render() string { return r.Table().String() }
