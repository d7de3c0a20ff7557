package sim

import (
	"math/rand"
	"testing"
)

func mkMsg(from, to int, ready Time) Message {
	return Message{From: ProcID(from), To: ProcID(to), ReadyAt: ready, Payload: from*1000 + to}
}

// TestMailboxFIFOAndReadiness checks delivery order and ready filtering:
// ready messages come out in send order, not-ready messages stay queued
// in order, across the inline slots, several overflow blocks and a flush.
func TestMailboxFIFOAndReadiness(t *testing.T) {
	var mb mailbox
	mb.initRange(0, 4)
	// Interleave ready (t<=5) and future (t=9) messages across blocks.
	for i := 0; i < 3*msgBlockCap; i++ {
		ready := Time(5)
		if i%3 == 1 {
			ready = 9
		}
		mb.enqueue(mkMsg(i, 2, ready))
	}
	if mb.count(2) != 0 {
		t.Fatalf("count = %d before the flush, want 0", mb.count(2))
	}
	mb.flush()
	if mb.count(2) != 3*msgBlockCap {
		t.Fatalf("count = %d, want %d", mb.count(2), 3*msgBlockCap)
	}

	inbox := mb.drain(2, 5, nil)
	wantReady := 2 * msgBlockCap
	if len(inbox) != wantReady {
		t.Fatalf("drained %d, want %d", len(inbox), wantReady)
	}
	prev := -1
	for _, m := range inbox {
		if int(m.From) <= prev {
			t.Fatalf("delivery out of order: %d after %d", m.From, prev)
		}
		if m.ReadyAt > 5 {
			t.Fatalf("delivered a future message (ready %d)", m.ReadyAt)
		}
		prev = int(m.From)
	}
	if mb.count(2) != msgBlockCap {
		t.Fatalf("kept %d, want %d", mb.count(2), msgBlockCap)
	}

	// Second drain at t=9 delivers the rest, still in order.
	inbox = mb.drain(2, 9, inbox[:0])
	if len(inbox) != msgBlockCap {
		t.Fatalf("second drain %d, want %d", len(inbox), msgBlockCap)
	}
	prev = -1
	for _, m := range inbox {
		if int(m.From) <= prev {
			t.Fatalf("kept-message order broken: %d after %d", m.From, prev)
		}
		prev = int(m.From)
	}
	if mb.count(2) != 0 {
		t.Fatalf("count = %d after full drain, want 0", mb.count(2))
	}
}

// TestMailboxFlushKeepsSendOrder stages one step of many senders to one
// destination with mixed delays, interleaved with sends to other
// destinations, on top of a queue that already spilled past its inline
// slots. The destination must see its messages in send order, not in
// ReadyAt or sender order: a message sent with delay 3 stays ahead of a
// later one sent with delay 1.
func TestMailboxFlushKeepsSendOrder(t *testing.T) {
	var mb mailbox
	mb.initRange(0, 8)
	seq := 0
	send := func(to int, ready Time) {
		mb.enqueue(Message{From: ProcID(seq % 8), To: ProcID(to), SentAt: Time(seq), ReadyAt: ready})
		seq++
	}
	// Step 1: six messages to 5 (two past the inline slots), delay 3.
	for i := 0; i < 6; i++ {
		send(5, 4)
	}
	mb.flush()
	// Step 2: 70 messages to 5 with delays alternating 1 and 3, and a
	// message to every other destination between each.
	for i := 0; i < 70; i++ {
		send(5, Time(3+2*(i%2)))
		send((5+1+i%7)%8, 3)
	}
	mb.flush()
	if got := mb.count(5); got != 76 {
		t.Fatalf("count(5) = %d, want 76", got)
	}
	// At t=3 only step 2's delay-1 messages are ready.
	inbox := mb.drain(5, 3, nil)
	if len(inbox) != 35 || mb.count(5) != 41 {
		t.Fatalf("drained %d and kept %d at t=3, want 35 and 41", len(inbox), mb.count(5))
	}
	rest := mb.drain(5, 5, nil)
	if len(rest) != 41 || mb.count(5) != 0 {
		t.Fatalf("drained %d and kept %d at t=5, want 41 and 0", len(rest), mb.count(5))
	}
	for _, part := range [][]Message{inbox, rest} {
		for i := 1; i < len(part); i++ {
			if part[i].SentAt <= part[i-1].SentAt {
				t.Fatalf("send order broken: message %d after %d", part[i].SentAt, part[i-1].SentAt)
			}
		}
	}
	if rest[0].SentAt != 0 {
		t.Fatalf("the oldest kept message is %d, want 0", rest[0].SentAt)
	}
}

// TestMailboxMatchesModel drives the mailbox with random steps — a few
// senders' worth of sends with random delays to random destinations, one
// flush, drains of random destinations — next to a plain per-destination
// slice model, and checks every drain and every count.
func TestMailboxMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 3, 64} {
		var mb mailbox
		mb.initRange(10, 10+n)
		model := make([][]Message, n)
		seq := 0
		for now := Time(0); now < 400; now++ {
			for p := 0; p < n; p++ {
				if rng.Intn(3) == 0 {
					continue
				}
				want := model[p][:0:0]
				var ready []Message
				for _, m := range model[p] {
					if m.ReadyAt <= now {
						ready = append(ready, m)
					} else {
						want = append(want, m)
					}
				}
				model[p] = want
				got := mb.drain(10+p, now, nil)
				if len(got) != len(ready) {
					t.Fatalf("n=%d t=%d p=%d: drained %d, want %d", n, now, p, len(got), len(ready))
				}
				for i := range got {
					if got[i].SentAt != ready[i].SentAt {
						t.Fatalf("n=%d t=%d p=%d: delivery %d is message %d, want %d", n, now, p, i, got[i].SentAt, ready[i].SentAt)
					}
				}
				if mb.count(10+p) != len(want) {
					t.Fatalf("n=%d t=%d p=%d: count %d after a partial drain, want %d", n, now, p, mb.count(10+p), len(want))
				}
			}
			for k := rng.Intn(3 * msgBlockCap); k > 0; k-- {
				to := rng.Intn(n)
				m := Message{To: ProcID(10 + to), SentAt: Time(seq), ReadyAt: now + 1 + Time(rng.Intn(12))}
				seq++
				mb.enqueue(m)
				model[to] = append(model[to], m)
			}
			mb.flush()
			pending := 0
			for p := range model {
				pending += len(model[p])
			}
			if st := mb.stats(); st.PendingMessages != int64(pending) {
				t.Fatalf("n=%d t=%d: PendingMessages %d, want %d", n, now, st.PendingMessages, pending)
			}
		}
	}
}

// TestMailboxArenaStats pins ArenaStats' three fields, blocks taken,
// undelivered messages (staged ones included) and their high-water mark,
// and the blocks on the free list.
func TestMailboxArenaStats(t *testing.T) {
	var mb mailbox
	mb.initRange(0, 2)
	for i := 0; i < inlineSlots+msgBlockCap+1; i++ {
		mb.enqueue(mkMsg(i, 0, 1))
	}
	// Staged: two staging blocks, and every staged message is pending.
	if st := mb.stats(); st != (ArenaStats{BlocksAllocated: 2, PendingMessages: 37, PeakPendingMessages: 37}) || freeBlocks(&mb) != 0 {
		t.Fatalf("after staging: %+v, %d free", st, freeBlocks(&mb))
	}
	// Flushed: 4 messages inline and 33 in two overflow blocks, carved
	// while the staging blocks were still in use; those two are back on
	// the free list.
	mb.flush()
	if st := mb.stats(); st != (ArenaStats{BlocksAllocated: 4, PendingMessages: 37, PeakPendingMessages: 37}) || freeBlocks(&mb) != 2 {
		t.Fatalf("after the flush: %+v, %d free", st, freeBlocks(&mb))
	}
	_ = mb.drain(0, 1, nil)
	if st := mb.stats(); st != (ArenaStats{BlocksAllocated: 4, PendingMessages: 0, PeakPendingMessages: 37}) || freeBlocks(&mb) != 4 {
		t.Fatalf("after the drain: %+v, %d free", st, freeBlocks(&mb))
	}
}

// freeBlocks counts the blocks on the mailbox's free list.
func freeBlocks(mb *mailbox) int {
	n := 0
	for b := mb.free; b != nil; b = b.next {
		n++
	}
	return n
}

// TestMailboxRecyclesBlocks checks the free list: steady-state traffic
// must reuse blocks instead of allocating new ones, and recycled blocks
// must not retain payload references.
func TestMailboxRecyclesBlocks(t *testing.T) {
	var mb mailbox
	mb.initRange(0, 8)
	for round := 0; round < 50; round++ {
		for i := 0; i < 4*msgBlockCap; i++ {
			mb.enqueue(mkMsg(i, i%8, Time(round)))
		}
		mb.flush()
		for p := 0; p < 8; p++ {
			_ = mb.drain(p, Time(round), nil)
		}
	}
	// A round stages 4*msgBlockCap messages in 4 blocks and gives each of
	// the 8 destinations 16: 4 inline and 12 in one overflow block. The
	// staging blocks are recycled only after the flush has placed every
	// message, so a round's peak is 4 + 8 = 12 blocks, and every later
	// round must run on them.
	if mb.allocated > 12 {
		t.Fatalf("allocated %d blocks for a steady 12-block working set", mb.allocated)
	}
	for b := mb.free; b != nil; b = b.next {
		for i := range b.msgs {
			if b.msgs[i].Payload != nil {
				t.Fatal("recycled block retains a payload reference")
			}
		}
	}
	for p := range mb.recs {
		for i := range mb.recs[p].inline {
			if mb.recs[p].inline[i].Payload != nil {
				t.Fatal("a drained record retains a payload reference")
			}
		}
	}
}

// TestMailboxSteadyStateAllocs pins the enqueue/flush/drain cycle at zero
// allocations once the block free list and the flush's sort buffers are
// warm.
func TestMailboxSteadyStateAllocs(t *testing.T) {
	var mb mailbox
	mb.initRange(0, 4)
	inbox := make([]Message, 0, 256)
	payload := Payload("steady") // precomputed: boxing a fresh value would allocate in the test itself
	cycle := func(now Time) {
		for i := 0; i < 100; i++ {
			mb.enqueue(Message{From: ProcID(i), To: ProcID(i % 4), ReadyAt: now, Payload: payload})
		}
		mb.flush()
		for p := 0; p < 4; p++ {
			inbox = mb.drain(p, now, inbox[:0])
		}
	}
	cycle(0) // warm
	now := Time(1)
	allocs := testing.AllocsPerRun(500, func() {
		cycle(now)
		now++
	})
	if allocs != 0 {
		t.Fatalf("steady-state enqueue/flush/drain allocates %.1f/op, want 0", allocs)
	}
}

// TestMailboxPartialKeepAcrossBlocks exercises the compaction path where
// kept messages span multiple blocks and trailing blocks are recycled.
func TestMailboxPartialKeepAcrossBlocks(t *testing.T) {
	var mb mailbox
	mb.initRange(0, 1)
	total := 5*msgBlockCap + 7
	for i := 0; i < total; i++ {
		ready := Time(1)
		if i%2 == 0 {
			ready = 2
		}
		mb.enqueue(mkMsg(i, 0, ready))
	}
	mb.flush()
	inbox := mb.drain(0, 1, nil)
	if len(inbox)+mb.count(0) != total {
		t.Fatalf("message conservation broken: %d delivered + %d kept != %d",
			len(inbox), mb.count(0), total)
	}
	// Drain the rest and confirm total conservation and order.
	rest := mb.drain(0, 2, nil)
	if len(rest) != total-len(inbox) {
		t.Fatalf("second drain %d, want %d", len(rest), total-len(inbox))
	}
	seen := make(map[int]bool, total)
	for _, m := range append(append([]Message{}, inbox...), rest...) {
		seen[int(m.From)] = true
	}
	if len(seen) != total {
		t.Fatalf("lost or duplicated messages: %d distinct of %d", len(seen), total)
	}
}
