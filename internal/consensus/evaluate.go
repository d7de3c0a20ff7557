package consensus

import (
	"fmt"

	"repro/internal/rng"
	"repro/internal/sim"
)

// NewNodes builds the n consensus nodes for the given binary inputs. Node
// randomness and the default common coin both derive from seed (through
// independent forks); the adversary stream must come from a different tag,
// which adversary.Standard already guarantees.
func NewNodes(p Params, inputs []uint8, seed int64) ([]sim.Node, error) {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if len(inputs) != p.N {
		return nil, fmt.Errorf("consensus: %d inputs for N = %d", len(inputs), p.N)
	}
	coin := p.Coin
	if coin == nil {
		coin = NewCommonCoin(seed)
	}
	root := rng.New(seed).Fork(0xC0465)
	nodes := make([]sim.Node, p.N)
	for i := range nodes {
		nd, err := NewNode(sim.ProcID(i), inputs[i], p, root.Fork(uint64(i)), coin)
		if err != nil {
			return nil, err
		}
		nodes[i] = nd
	}
	return nodes, nil
}

// RandomInputs returns n uniform binary inputs.
func RandomInputs(n int, seed int64) []uint8 {
	r := rng.New(seed).Fork(0x1A9)
	in := make([]uint8, n)
	for i := range in {
		in[i] = uint8(r.Uint64() & 1)
	}
	return in
}

// Evaluator judges a consensus run:
//
//	Agreement   — every decided process (correct or crashed) decided the
//	              same value;
//	Validity    — the decision is some process's input;
//	Termination — every correct process decided.
//
// CompletedAt is the time the last correct process decided.
type Evaluator struct {
	Inputs []uint8
}

var _ sim.Evaluator = Evaluator{}

// Evaluate implements sim.Evaluator.
func (e Evaluator) Evaluate(v sim.View) sim.Outcome {
	var (
		completedAt sim.Time
		haveVal     bool
		val         uint8
	)
	for p := 0; p < v.N(); p++ {
		nd, ok := v.Node(sim.ProcID(p)).(*Node)
		if !ok {
			return sim.Outcome{Detail: fmt.Sprintf("node %d is not a consensus node", p)}
		}
		decided, decision, at := nd.Decided()
		if !decided {
			if v.Alive(sim.ProcID(p)) {
				return sim.Outcome{Detail: fmt.Sprintf("termination violated: correct process %d undecided", p)}
			}
			continue
		}
		if haveVal && decision != val {
			return sim.Outcome{Detail: fmt.Sprintf(
				"agreement violated: process %d decided %d, another decided %d", p, decision, val)}
		}
		haveVal, val = true, decision
		if v.Alive(sim.ProcID(p)) && at > completedAt {
			completedAt = at
		}
	}
	if haveVal {
		valid := false
		for _, in := range e.Inputs {
			if in == val {
				valid = true
				break
			}
		}
		if !valid {
			return sim.Outcome{Detail: fmt.Sprintf("validity violated: decision %d was not proposed", val)}
		}
	}
	return sim.Outcome{OK: true, CompletedAt: completedAt}
}
