package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitset"
	"repro/internal/sim"
)

// coverageChecker wraps an ears/sears node and checks, after every Step,
// the rules the informed list's shortcuts rest on.
type coverageChecker struct {
	*earsNode
	t       *testing.T
	partial *atomic.Int64 // steps with a covered row while V ≠ [n]
}

func (c coverageChecker) Step(now sim.Time, inbox []sim.Message, out *sim.Outbox) {
	// The reference I(p) takes every received list in full.
	want := c.inf.m.Clone()
	for _, m := range inbox {
		if pl, ok := m.Payload.(*GossipPayload); ok && pl.Informed.m != nil {
			want.UnionWith(pl.Informed.m)
		}
	}
	c.earsNode.Step(now, inbox, out)
	il, v := c.inf, c.rum.Set
	for _, m := range out.Messages() {
		want.RowUnionSet(int(m.To), v)
	}
	if !il.m.Equal(want) {
		c.t.Errorf("p%d t=%d: I(p) differs from the flat unions of the received lists and the sends", c.id, now)
		return
	}
	// Every pair of I(p) holds a rumor of V(p): each row is a subset of V.
	rowLen := bitset.BitmapLen(il.n)
	vb := v.AppendBitmap(nil)
	rows := il.m.AppendBitmap(nil)
	for q := 0; q < il.n; q++ {
		row := rows[q*rowLen : (q+1)*rowLen]
		for i := range row {
			if row[i]&^vb[i] != 0 {
				c.t.Errorf("p%d t=%d: row %d holds a rumor outside V", c.id, now, q)
				return
			}
		}
	}
	// Every covered row contains V.
	covered := 0
	for q := 0; q < il.n; q++ {
		if !il.uncovered.Test(q) {
			covered++
			if !il.m.RowContainsSet(q, v) {
				c.t.Errorf("p%d t=%d: row %d is covered but does not contain V", c.id, now, q)
				return
			}
		}
	}
	if covered > 0 && !v.Full() {
		c.partial.Add(1)
	}
	dense := (il.n*il.n + 7) / 8
	for _, m := range out.Messages() {
		s := m.Payload.(*GossipPayload).Informed
		if got, want := s.sizeBytes(), min(8*s.m.Count(), dense); got != want {
			c.t.Errorf("p%d t=%d: informed sizeBytes() = %d, want min(8·Count, dense) = %d", c.id, now, got, want)
			return
		}
	}
}

// TestInformedListCoveredRows runs ears and sears on the clique, serially
// and with 4 shards, with and without crashes, and checks after every Step
// that I(p) equals the flat unions of everything received and sent, that
// every row of I(p) is a subset of V(p), that every covered row
// contains V(p), and that every sent informed list is sized
// min(8·Count, dense) bytes. With crashes some rumor usually never leaves
// its process, so V stays below [n] and the covered-row skip runs on
// partial rows; the test requires that it did.
func TestInformedListCoveredRows(t *testing.T) {
	for _, proto := range []Protocol{EARS{}, SEARS{}} {
		for _, n := range []int{64, 128} {
			for _, shards := range []int{1, 4} {
				for _, f := range []int{0, n / 4} {
					cfg := sim.Config{N: n, F: f, D: 2, Delta: 2, Seed: 3, Shards: shards}
					p := Params{N: n, Shards: shards}
					nodes, err := NewNodes(proto, p, cfg.Seed)
					if err != nil {
						t.Fatal(err)
					}
					var partial atomic.Int64
					for i, nd := range nodes {
						nodes[i] = coverageChecker{earsNode: nd.(*earsNode), t: t, partial: &partial}
					}
					adv, err := adversary.ByName(adversary.PresetStandard, cfg)
					if err != nil {
						t.Fatal(err)
					}
					w, err := sim.NewWorld(cfg, nodes, adv)
					if err != nil {
						t.Fatal(err)
					}
					res, err := w.Run(proto.Evaluator(p))
					if err != nil {
						t.Fatal(err)
					}
					if !res.Completed {
						t.Fatalf("%s n=%d f=%d shards=%d: not completed", proto.Name(), n, f, shards)
					}
					if f > 0 && partial.Load() == 0 {
						t.Fatalf("%s n=%d f=%d shards=%d: no step had a covered row with V ≠ [n], so the partial case was not checked", proto.Name(), n, f, shards)
					}
				}
			}
		}
	}
}
