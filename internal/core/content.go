// Package core implements the paper's primary contribution: the randomized
// asynchronous gossip protocols ears (Epidemic Asynchronous Rumor
// Spreading, §3 / Figure 2), sears (Spamming EARS, §4), tears (Two-hop
// EARS, §5 / Figure 3), and the trivial all-to-all baseline, all running on
// the partially synchronous crash-prone model of package sim.
package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/sim"
)

// NoValue marks a rumor that carries no attached value.
const NoValue = ^uint8(0)

// Rumors is the set of rumors known to a process. Rumor identifiers
// coincide with process identifiers: rumor r is the initial rumor of
// process r. A rumor may carry a small attached value (the consensus layer
// attaches votes); plain gossip leaves Vals nil.
//
// Rumors values sent in messages are copy-on-write snapshots: the Set is
// snapshotted and the Vals array is shared. Sharing Vals is sound because
// a value is written exactly once, when the rumor is first learned, and a
// receiver only reads values for rumors present in the (frozen) Set — all
// of which were written before the snapshot was taken.
type Rumors struct {
	Set  *bitset.Set
	Vals []uint8
	pool *Pool // nil = unpooled; set by newRumors for pooled collections
}

// NewRumors returns an empty rumor collection over n processes. If
// withVals is set, rumors carry values.
func NewRumors(n int, withVals bool) *Rumors {
	return newRumors(n, withVals, nil)
}

// newRumors is NewRumors with an optional pool: the collection header and
// the set's word storage come from the pool, and snapshots taken from the
// collection are pooled (released through the payload refcounts). Vals is
// never pooled — it is shared write-once across every snapshot for the
// lifetime of the node (see the type comment), so it can never be safely
// recycled before the run ends.
func newRumors(n int, withVals bool, pool *Pool) *Rumors {
	var r *Rumors
	if pool != nil {
		r = pool.getRumors()
		r.Set = pool.bits.NewSet()
	} else {
		r = &Rumors{Set: bitset.New(n)}
	}
	if withVals {
		r.Vals = make([]uint8, n)
	}
	return r
}

// Add records rumor r with an optional value (pass NoValue for none).
func (ru *Rumors) Add(r sim.ProcID, val uint8) {
	ru.Set.Add(int(r))
	if ru.Vals != nil && val != NoValue {
		ru.Vals[r] = val
	}
}

// Has reports whether rumor r is known.
func (ru *Rumors) Has(r sim.ProcID) bool { return ru.Set.Test(int(r)) }

// Count returns the number of known rumors.
func (ru *Rumors) Count() int { return ru.Set.Count() }

// Value returns the value attached to rumor r, or NoValue.
func (ru *Rumors) Value(r sim.ProcID) uint8 {
	if ru.Vals == nil || !ru.Set.Test(int(r)) {
		return NoValue
	}
	return ru.Vals[r]
}

// Snapshot returns a cheap logically immutable copy for sending. A
// snapshot of a pooled collection is pooled: it is released (with the set
// snapshot inside it) when its carrying payload's refcount drops to zero.
func (ru *Rumors) Snapshot() *Rumors {
	if ru.pool != nil {
		s := ru.pool.getRumors()
		s.Set = ru.Set.Snapshot()
		s.Vals = ru.Vals
		return s
	}
	return &Rumors{Set: ru.Set.Snapshot(), Vals: ru.Vals}
}

// release returns a pooled snapshot's storage to its pool (no-op when
// unpooled). Must be called at most once; the payload release path is the
// only caller.
func (ru *Rumors) release() {
	if ru.pool == nil {
		return
	}
	if ru.Set != nil {
		ru.Set.Release()
	}
	ru.pool.putRumors(ru)
}

// Union merges other into ru, copying attached values for newly gained
// rumors. Values are write-once per rumor, so unioning collections from
// the same instance never conflicts.
func (ru *Rumors) Union(other *Rumors) {
	if other == nil {
		return
	}
	if ru.Vals != nil && other.Vals != nil {
		other.Set.ForEachDiff(ru.Set, func(i int) bool {
			ru.Vals[i] = other.Vals[i]
			return true
		})
	}
	ru.Set.UnionWith(other.Set)
}

// Clone returns an independent deep copy.
func (ru *Rumors) Clone() *Rumors {
	cp := &Rumors{Set: ru.Set.Clone()}
	if ru.Vals != nil {
		cp.Vals = append([]uint8(nil), ru.Vals...)
	}
	return cp
}

// SizeBytes approximates the wire size of the collection: a dense bitmap
// plus one byte per carried value.
func (ru *Rumors) SizeBytes() int {
	b := (ru.Set.Universe() + 7) / 8
	if ru.Vals != nil {
		b += ru.Set.Count()
	}
	return b
}

// String summarizes the collection.
func (ru *Rumors) String() string {
	return fmt.Sprintf("rumors(%d/%d)", ru.Count(), ru.Set.Universe())
}

// Tracker is the rumor bookkeeping shared by all gossip nodes: the rumor
// collection plus acquisition-time records used by evaluators to compute
// the paper's completion time after the run. Synchronous baselines and the
// consensus layer embed it too.
//
// A tracker has two modes. The full mode (the default) records the
// acquisition time of every rumor and of every count milestone — Θ(n) words
// per process, Θ(n²) per run, which is what the evaluators and the stage
// experiments read. The lean mode (Params.Lean) keeps O(1) bookkeeping:
// the time of the most recent acquisition and the time the count crossed
// the majority threshold. Lean trackers answer RumorAcquiredAt with the
// last-acquisition time for any held rumor (an upper bound that is exact
// for the rumor acquired last) and RumorCountReachedAt exactly for
// k ∈ {1, majority, current count}; this is precisely what the gossip
// evaluators consume, and it is what makes n in the tens of thousands fit
// in memory for the large-scale bench sweeps.
type Tracker struct {
	n          int
	self       sim.ProcID
	rum        *Rumors
	acquiredAt []sim.Time // per rumor; -1 if never acquired (nil in lean mode)
	countAt    []sim.Time // countAt[k]: time the count first reached k (nil in lean mode)
	count      int

	lean   bool
	maj    int      // ⌊n/2⌋+1 (lean mode milestone)
	lastAt sim.Time // lean: time of the most recent acquisition
	majAt  sim.Time // lean: time the count first reached maj; -1 before
}

// NewTracker builds the tracker for process id under p, seeded with the
// process's own rumor (value val, or NoValue): pooled rumor storage when
// the run has a pool, lean bookkeeping when p.Lean is set.
func (p Params) NewTracker(id sim.ProcID, val uint8) Tracker {
	var st Tracker
	st.reset(p, id, val)
	return st
}

// reset rebuilds st as p.NewTracker(id, val) would. An unpooled rumor set
// without values over [p.N] is kept and emptied by Set.Clear, which copies
// on write while a sent snapshot still shares its words.
func (st *Tracker) reset(p Params, id sim.ProcID, val uint8) {
	n, rum := p.N, st.rum
	if rum != nil && rum.pool == nil && rum.Vals == nil && p.Pool == nil && !p.WithVals && rum.Set.Universe() == n {
		rum.Set.Clear()
	} else {
		rum = newRumors(n, p.WithVals, p.Pool)
	}
	t := Tracker{n: n, self: id, rum: rum, lean: p.Lean, maj: n/2 + 1, majAt: -1}
	if !p.Lean {
		// One backing array for both time tables (they live and die
		// together, and runs construct n of them).
		times := make([]sim.Time, 2*n+1)
		for i := range times {
			times[i] = -1
		}
		t.acquiredAt = times[:n:n]
		t.countAt = times[n:]
	}
	t.Learn(id, val, 0)
	*st = t
}

// Learn records rumor r with value val at time now (idempotent).
func (st *Tracker) Learn(r sim.ProcID, val uint8, now sim.Time) {
	if st.rum.Has(r) {
		return
	}
	st.rum.Add(r, val)
	st.count++
	st.noteAcquired(r, now)
}

// noteAcquired updates the time bookkeeping after the count already moved.
func (st *Tracker) noteAcquired(r sim.ProcID, now sim.Time) {
	if st.lean {
		st.lastAt = now
		if st.count >= st.maj && st.majAt < 0 {
			st.majAt = now
		}
		return
	}
	st.acquiredAt[r] = now
	st.countAt[st.count] = now
}

// Absorb merges an incoming rumor collection, recording acquisition times.
// It is the per-delivery hot path: new rumors are discovered by a
// word-level diff (the iteration closure does not escape, so absorption
// allocates nothing), and the set union is skipped entirely when the
// message carried nothing new — the common case late in a run, which also
// avoids touching a copy-on-write buffer for no reason.
func (st *Tracker) Absorb(in *Rumors, now sim.Time) {
	if in == nil {
		return
	}
	vals := st.rum.Vals != nil && in.Vals != nil
	changed := false
	in.Set.ForEachDiff(st.rum.Set, func(i int) bool {
		changed = true
		st.count++
		st.noteAcquired(sim.ProcID(i), now)
		if vals {
			st.rum.Vals[i] = in.Vals[i]
		}
		return true
	})
	if changed {
		st.rum.Set.UnionWith(in.Set)
	}
}

// RumorSet implements RumorHolder.
func (st *Tracker) RumorSet() *bitset.Set { return st.rum.Set }

// Rumors exposes the full collection (consensus layer reads values).
func (st *Tracker) Rumors() *Rumors { return st.rum }

// RumorAcquiredAt implements RumorHolder. In lean mode the answer for a
// held rumor is the node's last acquisition time (exact for the rumor
// acquired last, an upper bound for the rest) and 0 for the node's own.
func (st *Tracker) RumorAcquiredAt(r sim.ProcID) sim.Time {
	if int(r) < 0 || int(r) >= st.n {
		return -1
	}
	if st.lean {
		switch {
		case !st.rum.Has(r):
			return -1
		case r == st.self:
			return 0
		default:
			return st.lastAt
		}
	}
	return st.acquiredAt[r]
}

// RumorCountReachedAt implements RumorHolder. In lean mode the milestones
// k = 1, k = ⌊n/2⌋+1 and k = current count are exact; other reached counts
// answer with the last acquisition time (an upper bound).
func (st *Tracker) RumorCountReachedAt(k int) sim.Time {
	if k <= 0 {
		return 0
	}
	if k > st.n {
		return -1
	}
	if st.lean {
		switch {
		case k > st.count:
			return -1
		case k == 1:
			return 0
		case k == st.maj:
			return st.majAt
		default:
			return st.lastAt
		}
	}
	return st.countAt[k]
}

// CloneTracker deep-copies the bookkeeping for node cloning. Clones are
// unpooled regardless of the original: they are driven outside the world
// (the Theorem 1 adversary branches executions by hand), where nothing
// ever releases their snapshots.
func (st *Tracker) CloneTracker() Tracker {
	cp := Tracker{
		n:          st.n,
		self:       st.self,
		rum:        &Rumors{Set: st.rum.Set.Clone()},
		acquiredAt: append([]sim.Time(nil), st.acquiredAt...),
		countAt:    append([]sim.Time(nil), st.countAt...),
		count:      st.count,
		lean:       st.lean,
		maj:        st.maj,
		lastAt:     st.lastAt,
		majAt:      st.majAt,
	}
	if st.rum.Vals != nil {
		cp.rum.Vals = append([]uint8(nil), st.rum.Vals...)
	}
	return cp
}

// RumorHolder is implemented by every gossip node and consumed by the
// evaluators in this package.
type RumorHolder interface {
	// RumorSet returns the set of rumor identifiers known to the node.
	RumorSet() *bitset.Set
	// RumorAcquiredAt returns when rumor r was first learned, or -1.
	RumorAcquiredAt(r sim.ProcID) sim.Time
	// RumorCountReachedAt returns when the node first knew k rumors, or -1.
	RumorCountReachedAt(k int) sim.Time
}
