package sim

import (
	"fmt"
	"testing"
)

// kernelBenchSends is how many messages each benchmark node sends.
const kernelBenchSends = 16

// kernelBenchPayload is a 1-byte payload; boxing a byte does not allocate.
var kernelBenchPayload Payload = byte(1)

// kernelBenchNode sends one 1-byte message per step to a pseudo-random
// peer until its budget is spent, and ignores what it receives: the
// least a node can do, so the run measures the kernel's own cost.
type kernelBenchNode struct {
	id   ProcID
	n    uint64
	left int
	x    uint64 // xorshift state
}

func (k *kernelBenchNode) ID() ProcID { return k.id }

func (k *kernelBenchNode) Step(_ Time, _ []Message, out *Outbox) {
	if k.left == 0 {
		return
	}
	k.left--
	k.x ^= k.x << 13
	k.x ^= k.x >> 7
	k.x ^= k.x << 17
	out.Send(ProcID(k.x%k.n), kernelBenchPayload)
}

func (k *kernelBenchNode) Quiescent() bool { return k.left == 0 }

// kernelBenchAdv schedules every process at every step, in ascending id
// order, and draws delays in [1, 3] from a hash of the send.
type kernelBenchAdv struct{}

func (kernelBenchAdv) Schedule(_ Time, v View, buf []ProcID) []ProcID {
	for p := 0; p < v.N(); p++ {
		buf = append(buf, ProcID(p))
	}
	return buf
}

func (kernelBenchAdv) Delay(t Time, from, to ProcID) Time {
	h := uint64(t)*0x9e3779b97f4a7c15 ^ uint64(from)<<32 ^ uint64(to)
	h ^= h >> 29
	return 1 + Time(h%3)
}

func (kernelBenchAdv) Crashes(_ Time, _ View, buf []ProcID) []ProcID { return buf }

// BenchmarkKernel measures the bare kernel — schedule, delay draws,
// mailbox and delivery — with nodes that do almost nothing, and reports
// ns per delivered message.
func BenchmarkKernel(b *testing.B) {
	for _, n := range []int{1024, 65536} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var msgs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				nodes := make([]Node, n)
				for p := range nodes {
					nodes[p] = &kernelBenchNode{id: ProcID(p), n: uint64(n), left: kernelBenchSends, x: uint64(p)*2654435761 + 1}
				}
				w, err := NewWorld(Config{N: n, D: 3, Delta: 1, Seed: 1}, nodes, kernelBenchAdv{})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := w.Run(nil)
				if err != nil {
					b.Fatal(err)
				}
				msgs += res.Messages
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
		})
	}
}
