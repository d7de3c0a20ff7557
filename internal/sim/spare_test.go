package sim

import (
	"sync"
	"testing"
)

// runSpareWorld runs n kernel-benchmark nodes to quiescence, serial or
// sharded, with a digest tracer, and returns the world and its digest.
func runSpareWorld(t *testing.T, n, shards int) (*World, uint64) {
	t.Helper()
	nodes := make([]Node, n)
	for p := range nodes {
		nodes[p] = &kernelBenchNode{id: ProcID(p), n: uint64(n), left: kernelBenchSends, x: uint64(p)*2654435761 + 1}
	}
	w, err := NewWorld(Config{N: n, D: 3, Delta: 1, Seed: 1, Shards: shards}, nodes, kernelBenchAdv{})
	if err != nil {
		panic(err) // a fixed, valid config; t.Fatal is not for worker goroutines
	}
	dig := NewDigestTracer()
	w.SetTracer(dig)
	if _, err := w.Run(nil); err != nil {
		t.Error(err)
	}
	return w, dig.Sum()
}

// boxes returns the world's mailboxes: its own, or one per shard.
func boxes(w *World) []*mailbox {
	if w.eng == nil {
		return []*mailbox{&w.box}
	}
	out := make([]*mailbox, len(w.eng.sh))
	for s := range w.eng.sh {
		out[s] = &w.eng.sh[s].box
	}
	return out
}

// TestSecondWorldCarvesNoSlab: a world that ends with nothing pending
// hands every block it took back, so an identical second world takes
// the same number of blocks and carves none of them.
func TestSecondWorldCarvesNoSlab(t *testing.T) {
	for _, shards := range []int{0, 3} {
		first, _ := runSpareWorld(t, 1024, shards)
		second, _ := runSpareWorld(t, 1024, shards)
		for s, mb := range boxes(second) {
			if mb.slab != nil {
				t.Errorf("shards=%d: mailbox %d of the second world carved a slab", shards, s)
			}
		}
		a, b := first.ArenaStats(), second.ArenaStats()
		if a.BlocksAllocated == 0 || a.BlocksAllocated != b.BlocksAllocated {
			t.Errorf("shards=%d: the worlds took %d and %d blocks, want the same nonzero count",
				shards, a.BlocksAllocated, b.BlocksAllocated)
		}
		if a.PendingMessages != 0 {
			t.Errorf("shards=%d: the first world ended with %d messages pending", shards, a.PendingMessages)
		}
		for s, mb := range boxes(first) {
			if mb.free != nil {
				t.Errorf("shards=%d: mailbox %d of the first world kept its free list", shards, s)
			}
		}
	}
}

// TestSpareBlocksAreZero: every block on the spare list has all its slots
// zero, so a handed-back block pins no payload of the world it left.
func TestSpareBlocksAreZero(t *testing.T) {
	runSpareWorld(t, 512, 0)
	runSpareWorld(t, 512, 3)
	spare.Lock()
	defer spare.Unlock()
	var blocks []*msgBlock
	for b := spare.head; b != nil; b = b.next {
		blocks = append(blocks, b)
	}
	if len(blocks) == 0 || len(blocks) != spare.n || spare.n > maxSpareBlocks {
		t.Fatalf("the spare list holds %d blocks and counts %d", len(blocks), spare.n)
	}
	for k, b := range blocks {
		if b.n != 0 {
			t.Fatalf("spare block %d holds n = %d", k, b.n)
		}
		for i := range b.msgs {
			if b.msgs[i] != (Message{}) {
				t.Fatalf("spare block %d slot %d is not zero: %+v", k, i, b.msgs[i])
			}
		}
	}
}

// TestConcurrentWorldsShareSpares runs serial and three-shard worlds on
// several goroutines at once, all taking and handing back spare blocks,
// and requires each to match a world run alone (go test -race checks the
// spare list's locking).
func TestConcurrentWorldsShareSpares(t *testing.T) {
	const n = 512
	want := map[int]uint64{}
	for _, shards := range []int{0, 3} {
		_, want[shards] = runSpareWorld(t, n, shards)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				for _, shards := range []int{0, 3} {
					if _, got := runSpareWorld(t, n, shards); got != want[shards] {
						t.Errorf("shards=%d: digest %x, want %x", shards, got, want[shards])
					}
				}
			}
		}()
	}
	wg.Wait()
}
