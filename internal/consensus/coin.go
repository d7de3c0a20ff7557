// Package consensus implements the randomized binary consensus protocols
// of the paper's §6: the Canetti–Rabin voting framework (following the
// crash-failure presentation of Attiya & Welch, ch. 14.3) with its
// get-core primitive realized either by three phases of all-to-all
// communication (the O(n²) baseline of Table 2's first row) or by three
// sequential instances of asynchronous (majority) gossip — CR-ears,
// CR-sears and CR-tears.
package consensus

import (
	"repro/internal/rng"
)

// Vote values. Binary consensus: processes propose Zero or One; Bot is the
// "no preference" vote of the framework's second election.
const (
	VoteZero uint8 = 0
	VoteOne  uint8 = 1
	VoteBot  uint8 = 2
)

// Coin provides the shared-coin abstraction of the Canetti–Rabin framework
// (the "third round of voting which simulates a shared random coin").
type Coin interface {
	// Flip returns the coin for round r as seen by process id.
	Flip(r int, id int) uint8
	// Name identifies the coin flavor.
	Name() string
}

// CommonCoin is a perfect common coin: every process sees the same uniform
// bit per round, derived from a PRF over a seed fixed before the execution.
//
// Substitution note: Canetti–Rabin construct their shared
// coin cryptographically; against an *oblivious* adversary — which fixes
// scheduling, delays and crashes before the execution, independent of coin
// flips — a pre-seeded PRF coin has exactly the same distributional
// behaviour, because the adversary cannot correlate its choices with the
// coin either way.
type CommonCoin struct {
	seed uint64
}

var _ Coin = CommonCoin{}

// coinTweak domain-separates the coin PRF from other uses of the seed.
const coinTweak = 0xC0DEC0FFEE

// NewCommonCoin returns a common coin derived from seed.
func NewCommonCoin(seed int64) CommonCoin {
	return CommonCoin{seed: uint64(seed) ^ coinTweak}
}

// Flip implements Coin: same value for every process.
func (c CommonCoin) Flip(r int, _ int) uint8 {
	x := c.seed + uint64(r)*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return uint8((x ^ (x >> 31)) & 1)
}

// Name implements Coin.
func (CommonCoin) Name() string { return "common" }

// LocalCoin is the Ben-Or-style independent local coin: each process flips
// its own bit each round. Against even an oblivious adversary this only
// guarantees expected exponential round complexity in the worst case; it
// is provided as the ablation baseline for the coin design choice.
type LocalCoin struct {
	root *rng.RNG
}

var _ Coin = (*LocalCoin)(nil)

// NewLocalCoin returns a local coin seeded independently per process.
func NewLocalCoin(seed int64) *LocalCoin {
	return &LocalCoin{root: rng.New(seed).Fork(0x10CA1C01)}
}

// Flip implements Coin: independent per (round, process).
func (l *LocalCoin) Flip(r int, id int) uint8 {
	return uint8(l.root.Fork(uint64(id)*1_000_003+uint64(r)).Uint64() & 1)
}

// Name implements Coin.
func (*LocalCoin) Name() string { return "local" }
