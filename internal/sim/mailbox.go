package sim

import "sync"

// msgBlockCap is the number of messages per mailbox block. Blocks are the
// unit of recycling: big enough that per-message overhead amortizes, small
// enough that a mostly-drained destination does not pin much memory.
const msgBlockCap = 32

// inlineSlots is the number of messages a destination's record holds
// itself, before its queue spills into blocks.
const inlineSlots = 4

// msgBlock is a fixed-capacity segment of one destination's queue, or of
// the staged sends of one time step.
type msgBlock struct {
	next *msgBlock
	n    int
	msgs [msgBlockCap]Message
}

// boxRec is one destination's queue: its first inlineSlots messages in
// the record itself, the rest in a chain of blocks whose every block but
// the tail is full. The chain is non-nil exactly when n > inlineSlots.
type boxRec struct {
	n          int32
	head, tail *msgBlock
	inline     [inlineSlots]Message
}

// mailbox holds every undelivered message of a world, laid out for memory
// locality: one record per destination, holding a short queue inline and
// a longer one in fixed-size blocks from one shared free list. Blocks
// emptied by a delivery are recycled at once (with their payload
// references cleared), so steady-state traffic allocates nothing and
// delivered payloads become collectable (or poolable) the moment they are
// consumed. When Run returns, the free list moves to a process-wide spare
// list, from which later worlds take blocks before they carve new ones.
//
// Sends are not written to their destination when made. enqueue stages
// them in send order, in blocks from the same free list, and flush, called
// once the time step's last process has stepped, moves them to their
// queues in destination order (a stable counting sort), so the step's
// writes walk the records in address order instead of jumping between
// random destinations. Deferring is invisible: every delay is at least 1,
// so no message sent at t is deliverable at t, and nothing reads a queue
// between a step's sends and the end of the step. Like the world that owns
// it, a mailbox is single-goroutine; only the spare list is shared.
type mailbox struct {
	recs []boxRec
	lo   int // first destination id this mailbox serves (sharded worlds)
	free *msgBlock

	staging []*msgBlock // this step's sends, in send order
	staged  int         // messages in staging
	order   []int32     // flush scratch: staged indices in destination order
	buckets []int32     // flush scratch: counting-sort bucket offsets

	allocated int        // blocks taken, carved or spare (diagnostics)
	pending   int64      // undelivered messages across all destinations
	peak      int64      // high-water mark of pending
	slab      []msgBlock // fresh blocks are carved from slabs
}

// blockSlab is the number of blocks allocated per slab.
const blockSlab = 16

// initRange prepares the mailbox for the destination range [lo, hi) — the
// id-range slice a shard owns. Storage is sized to the range, not to the
// full process count, so a sharded world's aggregate mailbox memory stays
// O(n), not O(shards·n).
func (mb *mailbox) initRange(lo, hi int) {
	mb.lo = lo
	mb.recs = make([]boxRec, hi-lo)
}

func (mb *mailbox) getBlock() *msgBlock {
	b := mb.free
	if b == nil {
		return mb.newBlock()
	}
	mb.free, b.next = b.next, nil
	return b
}

// putBlock clears a block's message slots (dropping payload references so
// the GC and the snapshot pools are not pinned by dead queue slack) and
// pushes it on the free list.
func (mb *mailbox) putBlock(b *msgBlock) {
	clear(b.msgs[:b.n])
	b.n = 0
	b.next = mb.free
	mb.free = b
}

// enqueue stages m, which joins its destination's queue at the next flush.
func (mb *mailbox) enqueue(m Message) {
	i := mb.staged % msgBlockCap
	if i == 0 {
		mb.staging = append(mb.staging, mb.getBlock())
	}
	b := mb.staging[len(mb.staging)-1]
	b.msgs[i] = m
	b.n = i + 1
	mb.staged++
	mb.pending++
	if mb.pending > mb.peak {
		mb.peak = mb.pending
	}
}

// flush appends every staged message to its destination's queue. A
// stable counting sort on the destination's high bits, with about one
// bucket per staged message, orders the appends by address in O(staged)
// time while keeping each destination's messages in send order.
func (mb *mailbox) flush() {
	if mb.staged == 0 {
		return
	}
	shift := 0
	for len(mb.recs)>>shift > mb.staged {
		shift++
	}
	nb := (len(mb.recs)-1)>>shift + 2
	if cap(mb.buckets) < nb {
		mb.buckets = make([]int32, nb)
	}
	start := mb.buckets[:nb]
	clear(start)
	for _, b := range mb.staging {
		for i := 0; i < b.n; i++ {
			start[(int(b.msgs[i].To)-mb.lo)>>shift+1]++
		}
	}
	for k := 1; k < nb; k++ {
		start[k] += start[k-1]
	}
	if cap(mb.order) < mb.staged {
		mb.order = make([]int32, mb.staged)
	}
	order := mb.order[:mb.staged]
	j := int32(0)
	for _, b := range mb.staging {
		for i := 0; i < b.n; i++ {
			k := (int(b.msgs[i].To) - mb.lo) >> shift
			order[start[k]] = j
			start[k]++
			j++
		}
	}
	for _, j := range order {
		mb.push(&mb.staging[j/msgBlockCap].msgs[j%msgBlockCap])
	}
	for _, b := range mb.staging {
		mb.putBlock(b)
	}
	mb.staging = mb.staging[:0]
	mb.staged = 0
}

// newBlock takes a block a finished world handed back, or else carves
// one; out of line, it keeps getBlock's inlined path small.
//
//go:noinline
func (mb *mailbox) newBlock() *msgBlock {
	mb.allocated++
	spare.Lock()
	b := spare.head
	if b != nil {
		spare.head, b.next = b.next, nil
		spare.n--
	}
	spare.Unlock()
	if b != nil {
		return b
	}
	if len(mb.slab) == 0 {
		mb.slab = make([]msgBlock, blockSlab)
	}
	b = &mb.slab[0]
	mb.slab = mb.slab[1:]
	return b
}

// push appends m to its destination's queue.
func (mb *mailbox) push(m *Message) {
	r := &mb.recs[int(m.To)-mb.lo]
	if r.n < inlineSlots {
		r.inline[r.n] = *m
		r.n++
		return
	}
	t := r.tail
	if t == nil || t.n == msgBlockCap {
		nb := mb.getBlock()
		if t == nil {
			r.head = nb
		} else {
			t.next = nb
		}
		r.tail = nb
		t = nb
	}
	t.msgs[t.n] = *m
	t.n++
	r.n++
}

// count returns the number of queued messages destined to p.
func (mb *mailbox) count(p int) int { return int(mb.recs[p-mb.lo].n) }

// drain appends every queued message for p whose ReadyAt has arrived to
// inbox in queue order, compacts the not-yet-ready messages in place and
// in order, recycles every block they no longer need, and returns the
// extended inbox.
func (mb *mailbox) drain(p int, now Time, inbox []Message) []Message {
	r := &mb.recs[p-mb.lo]
	n := int(r.n)
	if n == 0 {
		return inbox
	}
	in := min(n, inlineSlots)
	kept := 0
	for i := 0; i < in; i++ {
		if r.inline[i].ReadyAt <= now {
			inbox = append(inbox, r.inline[i])
		} else {
			r.inline[kept] = r.inline[i]
			kept++
		}
	}
	if r.head != nil {
		// Kept messages move forward: into free inline slots, then into the
		// chain from its head. The write position never passes the read
		// position, so the compaction needs no buffer.
		wb, wi := r.head, 0
		for b := r.head; b != nil; b = b.next {
			for i := 0; i < b.n; i++ {
				m := &b.msgs[i]
				switch {
				case m.ReadyAt <= now:
					inbox = append(inbox, *m)
					continue
				case kept < inlineSlots:
					r.inline[kept] = *m
				default:
					if wi == msgBlockCap {
						wb, wi = wb.next, 0
					}
					wb.msgs[wi] = *m
					wi++
				}
				kept++
			}
		}
		rest := r.head
		if kept > inlineSlots {
			clear(wb.msgs[wi:wb.n])
			wb.n = wi
			rest, wb.next = wb.next, nil
			r.tail = wb
		} else {
			r.head, r.tail = nil, nil
		}
		for rest != nil {
			next := rest.next
			mb.putBlock(rest)
			rest = next
		}
	}
	// Clear delivered inline slack so it does not pin payloads.
	clear(r.inline[min(kept, in):in])
	r.n = int32(kept)
	mb.pending -= int64(n - kept)
	return inbox
}

// ArenaStats is a point-in-time reading of the mailbox block arena —
// telemetry for memory-pressure curves (occupancy, recycling efficacy).
type ArenaStats struct {
	// BlocksAllocated counts blocks taken, carved or handed back.
	BlocksAllocated int
	// PendingMessages counts undelivered messages across all destinations.
	PendingMessages int64
	// PeakPendingMessages is the run's high-water mark of PendingMessages.
	PeakPendingMessages int64
}

// stats snapshots the arena counters.
func (mb *mailbox) stats() ArenaStats {
	return ArenaStats{
		BlocksAllocated:     mb.allocated,
		PendingMessages:     mb.pending,
		PeakPendingMessages: mb.peak,
	}
}

// spare holds up to maxSpareBlocks free blocks (5.3 MB) of finished
// worlds. Unlike a sync.Pool it survives a GC, so allocation counts stay
// exact.
var spare struct {
	sync.Mutex
	head *msgBlock
	n    int
}

const maxSpareBlocks = 4096

// handBack moves the free list to the spare list, up to its bound. Blocks
// that still queue messages stay: pending counts read the same after Run.
func (mb *mailbox) handBack() {
	spare.Lock()
	for b := mb.free; b != nil; b = mb.free {
		mb.free, b.next = b.next, nil
		if spare.n < maxSpareBlocks {
			b.next, spare.head = spare.head, b
			spare.n++
		}
	}
	spare.Unlock()
	clear(mb.staging[:cap(mb.staging)]) // its stale entries name handed-back blocks
}
