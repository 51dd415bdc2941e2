package linear

import (
	"fmt"
	"testing"

	"anondyn/internal/core"
	"anondyn/internal/dynnet"
	"anondyn/internal/historytree"
)

// RunCheckingBits is Run with every message's size checked, before the
// message is sent, against the canonical wire.View that buildView renders
// from the same class set. A mismatch is reported on tb and fails the
// sending process; so does a run that sent messages it did not check.
func RunCheckingBits(tb testing.TB, s dynnet.Schedule, inputs []historytree.Input,
	cfg Config, opts core.RunOptions) (*core.RunResult, error) {
	tb.Helper()
	checked := 0
	res, err := run(s, inputs, cfg, opts, func(in *interner, m *viewMsg) error {
		checked++
		if want := oracleBits(in, m); m.bits != want {
			err := fmt.Errorf("linear: a %d-class view sized %d bits, its canonical wire.View %d",
				len(m.classes), m.bits, want)
			tb.Error(err)
			return err
		}
		return nil
	})
	if err == nil && int64(checked) < res.Stats.TotalMessages {
		tb.Errorf("checked %d of %d messages", checked, res.Stats.TotalMessages)
	}
	return res, err
}
