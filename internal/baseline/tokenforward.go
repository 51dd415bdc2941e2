// Package baseline implements the randomized token-forwarding counting
// algorithm discussed in Section 1.2 of the paper, in the style of
// Kuhn–Lynch–Oshman (STOC 2010): unique random tokens are disseminated by
// single-token forwarding for Θ(N²) rounds. Messages are small, but the
// algorithm needs an a-priori bound N ≥ n, is only correct with high
// probability, and the random tokens defeat anonymity. The other Section
// 1.2 comparison point, the non-congested full-information algorithm, is
// the internal/linear backend.
package baseline

import (
	"fmt"
	"math/rand"

	"anondyn/internal/dynnet"
	"anondyn/internal/engine"
)

// TokenForwardResult is the outcome of a token-forwarding counting run.
type TokenForwardResult struct {
	// Estimate is the number of distinct tokens the designated observer
	// collected: the count estimate. It can undercount if two processes
	// drew the same token (probability ≤ n²/2·1/Bound·…) or if
	// dissemination did not finish within the round budget.
	Estimate int
	// Exact reports whether Estimate equals the true n — filled in by the
	// harness, which knows the truth; the algorithm itself cannot tell.
	Exact bool
	// Rounds is the number of rounds executed (always the full budget:
	// token forwarding has no termination detection without n).
	Rounds int
	// MaxMessageBits is the size of the largest message.
	MaxMessageBits int
}

// tokenMessage carries one token per round (single-token forwarding, the
// model of the Ω(n²/log n) lower bound of Dutta et al., SODA 2013).
type tokenMessage struct {
	token int64
}

// RunTokenForward executes the randomized token-forwarding counting
// comparator of Kuhn–Lynch–Oshman (STOC 2010): every process draws a
// random token from [0, bound³), forwards one uniformly random known token
// per round for rounds = 2·bound² rounds, and the observer counts distinct
// tokens. It requires an a-priori bound ≥ n, succeeds only with high
// probability, and the tokens act as identifiers, forfeiting anonymity —
// the three shortcomings Section 1.2 of the paper contrasts against.
func RunTokenForward(s dynnet.Schedule, bound int, seed int64) (*TokenForwardResult, error) {
	n := s.N()
	if bound < n {
		return nil, fmt.Errorf("baseline: bound %d below process count %d", bound, n)
	}
	rounds := 2 * bound * bound
	space := int64(bound) * int64(bound) * int64(bound)

	rng := rand.New(rand.NewSource(seed))
	steppers := make([]engine.Stepper, n)
	observer := (*tokenStepper)(nil)
	for i := range steppers {
		st := &tokenStepper{
			rng:    rand.New(rand.NewSource(rng.Int63())),
			known:  map[int64]bool{},
			budget: rounds,
		}
		st.self = st.rng.Int63n(space)
		st.known[st.self] = true
		steppers[i] = st
		if i == 0 {
			observer = st
		}
	}

	res, err := engine.RunSteppers(engine.Config{
		Schedule:  s,
		MaxRounds: rounds + 1,
		SizeOf: func(m engine.Message) int {
			tm, ok := m.(tokenMessage)
			if !ok {
				return 0
			}
			return varintBits(tm.token)
		},
	}, steppers)
	if err != nil {
		return nil, err
	}
	return &TokenForwardResult{
		Estimate:       len(observer.known),
		Rounds:         res.Rounds,
		MaxMessageBits: res.MaxMessageBits,
	}, nil
}

// tokenStepper is the per-process state machine.
type tokenStepper struct {
	rng    *rand.Rand
	self   int64
	known  map[int64]bool
	budget int
	steps  int
}

var _ engine.Stepper = (*tokenStepper)(nil)

// Compose forwards a uniformly random known token.
func (t *tokenStepper) Compose() engine.Message {
	tokens := make([]int64, 0, len(t.known))
	for tok := range t.known {
		tokens = append(tokens, tok)
	}
	// Deterministic order before sampling, so runs are reproducible.
	for i := 1; i < len(tokens); i++ {
		for j := i; j > 0 && tokens[j] < tokens[j-1]; j-- {
			tokens[j], tokens[j-1] = tokens[j-1], tokens[j]
		}
	}
	return tokenMessage{token: tokens[t.rng.Intn(len(tokens))]}
}

// Deliver collects received tokens.
func (t *tokenStepper) Deliver(msgs []engine.Message) {
	for _, raw := range msgs {
		if tm, ok := raw.(tokenMessage); ok {
			t.known[tm.token] = true
		}
	}
	t.steps++
}

// Done terminates after the fixed round budget.
func (t *tokenStepper) Done() (any, bool) {
	if t.steps >= t.budget {
		return len(t.known), true
	}
	return nil, false
}

// varintBits returns the size in bits of the unsigned varint encoding of
// the zig-zagged value.
func varintBits(v int64) int {
	u := uint64(v<<1) ^ uint64(v>>63)
	bytes := 1
	for u >= 0x80 {
		u >>= 7
		bytes++
	}
	return 8 * bytes
}
