package core

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
	"repro/internal/rng"
	"repro/internal/sim"
)

// scriptInboxes draws steps inboxes of gossip messages to process to over
// n processes: each message carries a random rumor set holding its sender,
// a random tears flag and, when informed is set, an informed list whose
// rows are subsets of those rumors (the invariant ears maintains).
func scriptInboxes(r *rng.RNG, n, steps int, to sim.ProcID, informed bool) [][]sim.Message {
	script := make([][]sim.Message, steps)
	for s := range script {
		for k := r.Intn(4); k > 0; k-- {
			from := sim.ProcID(r.Intn(n))
			rum := NewRumors(n, false)
			rum.Add(from, NoValue)
			for q := 0; q < n; q++ {
				if r.Bool(0.15) {
					rum.Add(sim.ProcID(q), NoValue)
				}
			}
			pl := &GossipPayload{Rumors: rum, Flag: r.Bool(0.7)}
			if informed {
				m := bitset.NewMatrix(n)
				rum.Set.ForEach(func(i int) bool {
					for q := 0; q < n; q++ {
						if r.Bool(0.3) {
							m.Set(q, i)
						}
					}
					return true
				})
				pl.Informed = informedSnapshot{m: m}
			}
			script[s] = append(script[s], sim.Message{From: from, To: to, SentAt: sim.Time(s), Payload: pl})
		}
	}
	return script
}

// gossipFingerprint hashes what a receiver reads from a gossip payload:
// its rumor set, its informed list and its flag.
func gossipFingerprint(pl *GossipPayload) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v int) {
		h ^= uint64(v)
		h *= 0x100000001b3
	}
	pl.Rumors.Set.ForEach(func(i int) bool {
		mix(i)
		return true
	})
	mix(-1)
	if m := pl.Informed.m; m != nil {
		n := m.Universe()
		for q := 0; q < n*n; q++ {
			if m.Test(q/n, q%n) {
				mix(q)
			}
		}
	}
	if pl.Flag {
		mix(-2)
	}
	return h
}

// sentGossip is one send with its payload's fingerprint at send time.
type sentGossip struct {
	to sim.ProcID
	pl *GossipPayload
	fp uint64
}

// stepScripted steps nd once per inbox of script, starting at time t0, and
// returns its sends.
func stepScripted(nd sim.Node, script [][]sim.Message, t0 sim.Time, n int) []sentGossip {
	var sent []sentGossip
	for s, inbox := range script {
		now := t0 + sim.Time(s)
		out := sim.NewOutbox(nd.ID(), now, n)
		nd.Step(now, inbox, out)
		for _, m := range out.Messages() {
			pl := m.Payload.(*GossipPayload)
			sent = append(sent, sentGossip{to: m.To, pl: pl, fp: gossipFingerprint(pl)})
		}
	}
	return sent
}

// TestResetMatchesNewNode steps an ears, sears or tears node, resets it,
// and drives it next to a fresh NewNode built with the same id, params and
// random stream: both must send to the same targets with the same payload
// contents and hold the same rumor sets after every Step. Every payload
// the node sent before the reset must keep its contents, so a reset that
// empties a rumor set still shared with a sent snapshot fails, and so does
// one that keeps the old audiences instead of re-drawing them.
func TestResetMatchesNewNode(t *testing.T) {
	const n = 32
	params := []struct {
		name string
		p    Params
	}{
		{"lean", Params{N: n, F: 8, Lean: true, NoPool: true}},
		{"full", Params{N: n, F: 8, NoPool: true}},
		{"withvals", Params{N: n, F: 8, WithVals: true, NoPool: true}},
		{"pooled", Params{N: n, F: 8, Pool: NewPool(n)}},
	}
	for _, proto := range []Protocol{EARS{}, SEARS{}, TEARS{}} {
		for _, pc := range params {
			p := pc.p
			for _, before := range []int{0, 1, 2, 5, 13} {
				t.Run(fmt.Sprintf("%s/%s/steps=%d", proto.Name(), pc.name, before), func(t *testing.T) {
					script := rng.New(int64(before) + 77)
					informed := proto.Name() != NameTEARS
					old := proto.NewNode(3, p, rng.New(1))
					pre := stepScripted(old, scriptInboxes(script, n, before, 3, informed), 0, n)

					old.(interface {
						Reset(sim.ProcID, Params, *rng.RNG)
					}).Reset(5, p, rng.New(2))
					fresh := proto.NewNode(5, p, rng.New(2))
					for s, inbox := range scriptInboxes(script, n, 20, 5, informed) {
						now := sim.Time(100 + s)
						got := stepScripted(old, [][]sim.Message{inbox}, now, n)
						want := stepScripted(fresh, [][]sim.Message{inbox}, now, n)
						if len(got) != len(want) {
							t.Fatalf("step %d: reset node sent %d messages, fresh node %d", s, len(got), len(want))
						}
						for i := range got {
							if got[i].to != want[i].to || got[i].fp != want[i].fp {
								t.Fatalf("step %d send %d: reset node sent to %d (fp %x), fresh node to %d (fp %x)",
									s, i, got[i].to, got[i].fp, want[i].to, want[i].fp)
							}
						}
						oh, fh := old.(RumorHolder), fresh.(RumorHolder)
						if !oh.RumorSet().Equal(fh.RumorSet()) {
							t.Fatalf("step %d: rumor sets differ: reset %v, fresh %v", s, oh.RumorSet(), fh.RumorSet())
						}
						for q := sim.ProcID(0); q < n; q++ {
							if a, b := oh.RumorAcquiredAt(q), fh.RumorAcquiredAt(q); a != b {
								t.Fatalf("step %d: rumor %d acquired at %d by the reset node, %d by the fresh one", s, q, a, b)
							}
						}
						if old.Quiescent() != fresh.Quiescent() {
							t.Fatalf("step %d: reset node quiescent=%v, fresh node %v", s, old.Quiescent(), fresh.Quiescent())
						}
					}
					for i, s := range pre {
						if fp := gossipFingerprint(s.pl); fp != s.fp {
							t.Fatalf("payload %d sent before the reset changed after it", i)
						}
					}
				})
			}
		}
	}
}
