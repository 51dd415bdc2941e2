package core

import (
	"fmt"

	"anondyn/internal/engine"
	"anondyn/internal/wire"
)

// stepRelay is the stepwise reference for engine.Transport.Relay on core's
// transports, the per-round fold the protocol did before relaying moved
// into the engine: one send per round, each step folding its deliveries in
// inbox order into the highest message by Higher, a message replacing the
// fold only when strictly higher, and wake checked on the fold at every
// step's end.
func stepRelay(send func(engine.Message) ([]engine.Message, error), m engine.Message, steps, hold int, wake func(engine.Message) bool) (engine.Message, error) {
	hold = max(hold, 1)
	for s := 0; s < steps; s++ {
		top := m
		topv, ok := wire.FromBox(top)
		if !ok {
			return nil, fmt.Errorf("core: relayed non-protocol message %T", top)
		}
		for h := 0; h < hold; h++ {
			in, err := send(m)
			if err != nil {
				return nil, err
			}
			for _, r := range in {
				rv, ok := wire.FromBox(r)
				if !ok {
					return nil, fmt.Errorf("core: received non-protocol message %T", r)
				}
				if Higher(rv, topv) {
					top, topv = r, rv
				}
			}
		}
		m = top
		if wake != nil && wake(m) {
			break
		}
	}
	return m, nil
}

// stepTransport replaces a transport's Relay by stepRelay over its own
// SendAndReceive, so the engine sees one plain submission per round.
type stepTransport struct{ transport }

func (s stepTransport) Relay(m engine.Message, steps, hold int, wake func(engine.Message) bool) (engine.Message, error) {
	return stepRelay(s.SendAndReceive, m, steps, hold, wake)
}
