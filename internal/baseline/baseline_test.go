package baseline

import (
	"testing"

	"anondyn/internal/dynnet"
)

func TestTokenForwardEstimates(t *testing.T) {
	for _, n := range []int{3, 6, 10} {
		s := dynnet.NewRandomConnected(n, 0.4, int64(n))
		res, err := RunTokenForward(s, n, 42)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if res.Estimate != n {
			t.Errorf("n=%d: estimated %d (w.h.p. failure or insufficient rounds)", n, res.Estimate)
		}
		if res.Rounds != 2*n*n {
			t.Errorf("n=%d: ran %d rounds, want %d", n, res.Rounds, 2*n*n)
		}
	}
}

func TestTokenForwardRequiresBound(t *testing.T) {
	s := dynnet.NewStatic(dynnet.Path(5))
	if _, err := RunTokenForward(s, 4, 1); err == nil {
		t.Fatal("expected error for bound < n")
	}
}
