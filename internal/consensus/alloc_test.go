package consensus_test

// Allocation and payload-sharing regression tests for the consensus send
// path, the counterpart of core/alloc_test.go. Consensus runs its gossip
// unpooled, so its per-message cost is whatever the node allocates per
// send; sharing one immutable payload per fan-out keeps that cost far
// below one allocation per message.

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/sim"
)

// TestConsensusAllocsPerMessage pins the whole-run allocation rate of one
// tears consensus run (construction included) at n=64: a send path that
// allocates a payload or a vote snapshot per message fails it.
func TestConsensusAllocsPerMessage(t *testing.T) {
	const budget = 0.25
	var msgs int64
	allocs := testing.AllocsPerRun(1, func() {
		msgs = runGolden(t, consensus.TransportTEARS, goldenCfg).messages
	})
	perMsg := allocs / float64(msgs)
	t.Logf("tears n=%d: %.0f allocations for %d messages (%.3f/msg)", goldenCfg.N, allocs, msgs, perMsg)
	if perMsg > budget {
		t.Fatalf("tears consensus allocates %.3f per message, budget %.2f", perMsg, budget)
	}
}

// TestConsensusBytesPerMessage pins the bytes the same run allocates per
// message, measured after one warm-up run as AllocsPerRun measures: an
// instance that grows its own inbox again, or a world that carves its
// mailbox blocks anew, fails it.
func TestConsensusBytesPerMessage(t *testing.T) {
	const budget = 30
	runGolden(t, consensus.TransportTEARS, goldenCfg)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	msgs := runGolden(t, consensus.TransportTEARS, goldenCfg).messages
	runtime.ReadMemStats(&after)
	perMsg := float64(after.TotalAlloc-before.TotalAlloc) / float64(msgs)
	t.Logf("tears n=%d: %d bytes for %d messages (%.0f B/msg)", goldenCfg.N, after.TotalAlloc-before.TotalAlloc, msgs, perMsg)
	if perMsg > budget {
		t.Fatalf("tears consensus allocates %.0f bytes per message, budget %d", perMsg, budget)
	}
}

// retainTracer keeps every consensus payload handed to the kernel, with a
// fingerprint of its content at send time.
type retainTracer struct {
	sim.NopTracer
	sent []sentPayload
}

type sentPayload struct {
	pl   *consensus.Payload
	fp   uint64
	from sim.ProcID
	at   sim.Time
}

func (r *retainTracer) OnSend(m sim.Message) {
	if pl, ok := m.Payload.(*consensus.Payload); ok {
		r.sent = append(r.sent, sentPayload{pl: pl, fp: payloadFingerprint(pl), from: m.From, at: m.SentAt})
	}
}

// payloadFingerprint hashes everything a receiver reads from a payload:
// the vote union's members and their values, the inner gossip rumor set,
// the history's length and decision, and the header fields.
func payloadFingerprint(pl *consensus.Payload) uint64 {
	h := uint64(0xcbf29ce484222325)
	mix := func(v int) {
		h ^= uint64(v)
		h *= 0x100000001b3
	}
	mix(pl.Idx)
	if pl.Probe {
		mix(-2)
	}
	rumors := func(r *core.Rumors) {
		if r == nil {
			mix(-3)
			return
		}
		r.Set.ForEach(func(i int) bool {
			mix(i)
			if r.Vals != nil {
				mix(int(r.Vals[i]))
			}
			return true
		})
		mix(-4)
	}
	rumors(pl.W)
	if pl.Inner != nil {
		rumors(pl.Inner.Rumors)
		if pl.Inner.Flag {
			mix(-5)
		}
	}
	if pl.Hist != nil {
		mix(len(pl.Hist.Outputs))
		if pl.Hist.Decided {
			mix(10 + int(pl.Hist.Value))
		}
	}
	return h
}

// TestSharedPayloadsStayImmutable retains every payload sent in a run and
// re-fingerprints it at the end: a payload shared by a fan-out, or a vote
// snapshot shared across Steps, that a later step mutated would change its
// fingerprint. Fewer distinct payloads than sends shows the fan-out
// sharing is in effect, and fewer distinct snapshots of live vote unions
// than Steps that sent one shows the snapshot cache is: a node snapshots
// its union again only after a union with news.
func TestSharedPayloadsStayImmutable(t *testing.T) {
	type step struct {
		from sim.ProcID
		at   sim.Time
	}
	for _, kind := range consensus.TransportKinds() {
		t.Run(string(kind), func(t *testing.T) {
			rt := &retainTracer{}
			got := runGolden(t, kind, goldenCfg, rt)
			if int64(len(rt.sent)) != got.messages {
				t.Fatalf("retained %d payloads for %d messages", len(rt.sent), got.messages)
			}
			distinct := make(map[*consensus.Payload]struct{}, len(rt.sent))
			snaps := map[*core.Rumors]struct{}{}
			steps := map[step]struct{}{}
			for i, s := range rt.sent {
				if fp := payloadFingerprint(s.pl); fp != s.fp {
					t.Fatalf("send %d (idx %d): payload changed after it was sent", i, s.pl.Idx)
				}
				distinct[s.pl] = struct{}{}
				if live := s.pl.W != nil && !slices.Contains(s.pl.Hist.Outputs, s.pl.W); live {
					snaps[s.pl.W] = struct{}{}
					steps[step{s.from, s.at}] = struct{}{}
				}
			}
			t.Logf("%s: %d sends share %d payloads; %d Steps sent %d live vote snapshots",
				kind, len(rt.sent), len(distinct), len(steps), len(snaps))
			if len(distinct) >= len(rt.sent) {
				t.Fatalf("%d sends used %d distinct payloads; a fan-out must share one", len(rt.sent), len(distinct))
			}
			if len(snaps) >= len(steps) {
				t.Fatalf("%d Steps sent %d distinct live vote snapshots; an unchanged union must keep its snapshot", len(steps), len(snaps))
			}
		})
	}
}
