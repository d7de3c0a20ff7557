package core

import (
	"testing"
	"testing/quick"

	"repro/internal/adversary"
	"repro/internal/bitset"
	"repro/internal/sim"
)

// ---------------------------------------------------------------------------
// Property: for random small configurations, every protocol completes under
// every oblivious preset, and the result is a pure function of the seed.
// ---------------------------------------------------------------------------

func TestQuickGossipAlwaysCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep in -short mode")
	}
	presets := adversary.Presets()
	protos := []Protocol{Trivial{}, EARS{}, SEARS{}, TEARS{}}
	check := func(nRaw, fRaw, dRaw, deltaRaw uint8, pSel, aSel uint8, seed int64) bool {
		n := 8 + int(nRaw)%56    // 8..63
		f := int(fRaw) % (n / 2) // keep < n/2 so tears' precondition holds too
		d := 1 + int(dRaw)%4
		delta := 1 + int(deltaRaw)%4
		proto := protos[int(pSel)%len(protos)]
		preset := presets[int(aSel)%len(presets)]
		cfg := sim.Config{N: n, F: f, D: sim.Time(d), Delta: sim.Time(delta), Seed: seed}
		res, err := runGossip2(proto, Params{}, cfg, preset)
		if err != nil {
			t.Logf("FAIL %s/%s n=%d f=%d d=%d δ=%d seed=%d: %v",
				proto.Name(), preset, n, f, d, delta, seed, err)
			return false
		}
		return res.Completed
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// Property: rumor causality. Every rumor a node holds arrived in a message
// that actually carried it (or is the node's own); acquisition times match
// delivery times. This checks the simulator and the protocols end to end:
// no state leaks outside messages.
// ---------------------------------------------------------------------------

// causalityTracer records, per destination, the union of rumors delivered
// to it and the time each rumor first arrived.
type causalityTracer struct {
	sim.NopTracer
	arrived []map[int]sim.Time // per process: rumor -> first delivery time
}

func newCausalityTracer(n int) *causalityTracer {
	c := &causalityTracer{arrived: make([]map[int]sim.Time, n)}
	for i := range c.arrived {
		c.arrived[i] = map[int]sim.Time{}
	}
	return c
}

func (c *causalityTracer) OnDeliver(m sim.Message, at sim.Time) {
	pl, ok := m.Payload.(*GossipPayload)
	if !ok || pl.Rumors == nil {
		return
	}
	dst := c.arrived[m.To]
	pl.Rumors.Set.ForEach(func(r int) bool {
		if _, seen := dst[r]; !seen {
			dst[r] = at
		}
		return true
	})
}

func TestRumorCausality(t *testing.T) {
	for _, proto := range []Protocol{Trivial{}, EARS{}, SEARS{}, TEARS{}} {
		proto := proto
		t.Run(proto.Name(), func(t *testing.T) {
			cfg := sim.Config{N: 48, F: 12, D: 3, Delta: 2, Seed: 21}
			p := Params{N: cfg.N, F: cfg.F}
			nodes, err := NewNodes(proto, p, cfg.Seed)
			if err != nil {
				t.Fatal(err)
			}
			adv, _ := adversary.ByName(adversary.PresetStandard, cfg)
			w, err := sim.NewWorld(cfg, nodes, adv)
			if err != nil {
				t.Fatal(err)
			}
			tracer := newCausalityTracer(cfg.N)
			w.SetTracer(tracer)
			if _, err := w.Run(proto.Evaluator(p)); err != nil {
				t.Fatal(err)
			}
			for q, nd := range nodes {
				h := nd.(RumorHolder)
				h.RumorSet().ForEach(func(r int) bool {
					if r == q {
						return true // own rumor, no message needed
					}
					at, ok := tracer.arrived[q][r]
					if !ok {
						t.Errorf("node %d holds rumor %d never delivered to it", q, r)
						return false
					}
					if got := h.RumorAcquiredAt(sim.ProcID(r)); got != at {
						t.Errorf("node %d rumor %d acquired at %d but first delivered at %d", q, r, got, at)
						return false
					}
					return true
				})
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Property: ears informed-list soundness. Every pair (r, q) in any I(p) at
// the end of a run corresponds to a message that was actually sent to q
// carrying rumor r. This is the invariant that makes sleeping safe
// (gathering holds at quiescence).
// ---------------------------------------------------------------------------

// sentRumorsTracer records, per destination, the union of rumors in
// messages sent to it (sent, not delivered: I(p) records sends).
type sentRumorsTracer struct {
	sim.NopTracer
	sentTo []*bitset.Set
}

func (s *sentRumorsTracer) OnSend(m sim.Message) {
	if pl, ok := m.Payload.(*GossipPayload); ok && pl.Rumors != nil {
		s.sentTo[m.To].UnionWith(pl.Rumors.Set)
	}
}

func TestEARSInformedListSoundness(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		cfg := sim.Config{N: 40, F: 10, D: 2, Delta: 2, Seed: seed}
		p := Params{N: cfg.N, F: cfg.F}
		nodes, err := NewNodes(EARS{}, p, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		adv, _ := adversary.ByName(adversary.PresetStandard, cfg)
		w, err := sim.NewWorld(cfg, nodes, adv)
		if err != nil {
			t.Fatal(err)
		}
		tracer := &sentRumorsTracer{sentTo: make([]*bitset.Set, cfg.N)}
		for i := range tracer.sentTo {
			tracer.sentTo[i] = bitset.New(cfg.N)
		}
		w.SetTracer(tracer)
		if _, err := w.Run(EARS{}.Evaluator(p)); err != nil {
			t.Fatal(err)
		}
		for _, nd := range nodes {
			en := nd.(*earsNode)
			for q := 0; q < cfg.N; q++ {
				for r := 0; r < cfg.N; r++ {
					if en.inf.m.Test(q, r) && !tracer.sentTo[q].Test(r) {
						t.Fatalf("seed %d: node %d's I claims rumor %d sent to %d, but no such send happened",
							seed, en.ID(), r, q)
					}
				}
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Property: Tracker bookkeeping invariants under random absorb sequences.
// ---------------------------------------------------------------------------

func TestQuickTrackerInvariants(t *testing.T) {
	check := func(adds []uint16, times []uint8) bool {
		const n = 64
		tr := Params{N: n}.NewTracker(3, NoValue)
		now := sim.Time(1)
		for i, a := range adds {
			in := NewRumors(n, false)
			in.Add(sim.ProcID(int(a)%n), NoValue)
			if i < len(times) {
				now += sim.Time(times[i] % 4)
			}
			tr.Absorb(in, now)
		}
		// count matches set cardinality
		if tr.Rumors().Count() != tr.RumorSet().Count() {
			return false
		}
		// countAt is defined and nondecreasing up to the current count
		prev := sim.Time(0)
		for k := 1; k <= tr.RumorSet().Count(); k++ {
			at := tr.RumorCountReachedAt(k)
			if at < 0 || at < prev {
				return false
			}
			prev = at
		}
		// every held rumor has a valid acquisition time; own rumor at 0
		ok := true
		tr.RumorSet().ForEach(func(r int) bool {
			at := tr.RumorAcquiredAt(sim.ProcID(r))
			if at < 0 {
				ok = false
				return false
			}
			if r == 3 && at != 0 {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Absorb is idempotent and order-insensitive w.r.t. the final rumor set.
func TestQuickAbsorbCommutes(t *testing.T) {
	check := func(xs, ys []uint16) bool {
		const n = 50
		mk := func(vals []uint16) *Rumors {
			ru := NewRumors(n, false)
			for _, v := range vals {
				ru.Add(sim.ProcID(int(v)%n), NoValue)
			}
			return ru
		}
		a, bset := mk(xs), mk(ys)
		t1 := Params{N: n}.NewTracker(0, NoValue)
		t1.Absorb(a, 1)
		t1.Absorb(bset, 2)
		t1.Absorb(a, 3) // idempotent re-absorb
		t2 := Params{N: n}.NewTracker(0, NoValue)
		t2.Absorb(bset, 1)
		t2.Absorb(a, 2)
		return t1.RumorSet().Equal(t2.RumorSet())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Rumors.Union carries values exactly for newly gained rumors and never
// overwrites existing ones (write-once discipline).
func TestQuickRumorsUnionValues(t *testing.T) {
	check := func(xs, ys []uint16, vx, vy uint8) bool {
		const n = 40
		vx %= 3
		vy %= 3
		a := NewRumors(n, true)
		for _, v := range xs {
			a.Add(sim.ProcID(int(v)%n), vx)
		}
		b := NewRumors(n, true)
		for _, v := range ys {
			b.Add(sim.ProcID(int(v)%n), vy)
		}
		aCount := a.Count()
		u := a.Clone()
		u.Union(b)
		if u.Count() < aCount || u.Count() < b.Count() {
			return false
		}
		ok := true
		u.Set.ForEach(func(i int) bool {
			want := vy
			if a.Has(sim.ProcID(i)) {
				want = vx // pre-existing value preserved
			}
			if u.Value(sim.ProcID(i)) != want {
				ok = false
				return false
			}
			return true
		})
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// GossipPayload size accounting is positive and monotone in content.
func TestPayloadSizeBytes(t *testing.T) {
	small := &GossipPayload{Rumors: NewRumors(64, false)}
	small.Rumors.Add(1, NoValue)
	big := &GossipPayload{Rumors: NewRumors(64, true)}
	for i := 0; i < 64; i++ {
		big.Rumors.Add(sim.ProcID(i), 1)
	}
	if small.SizeBytes() <= 0 {
		t.Fatal("non-positive payload size")
	}
	if big.SizeBytes() <= small.SizeBytes() {
		t.Fatalf("size not monotone: big=%d small=%d", big.SizeBytes(), small.SizeBytes())
	}
	withInformed := &GossipPayload{
		Rumors:   small.Rumors,
		Informed: informedSnapshot{m: bitset.NewMatrix(64)},
	}
	withInformed.Informed.m.Set(1, 2)
	if withInformed.SizeBytes() <= small.SizeBytes() {
		t.Fatal("informed list not accounted")
	}
}
