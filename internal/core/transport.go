package core

import (
	"fmt"

	"anondyn/internal/engine"
	"anondyn/internal/wire"
)

// transport is the communication surface the protocol needs. It is
// satisfied by *engine.Transport and wrapped by blockTransport for the
// T-union-connected extension.
type transport interface {
	SendAndReceive(m engine.Message) ([]engine.Message, error)
	Relay(m engine.Message, steps, hold int, wake func(engine.Message) bool) (engine.Message, error)
	Round() int
	PID() int
}

var _ transport = (*engine.Transport)(nil)

// blockTransport implements the Section 5 block simulation for
// T-union-connected networks: each virtual round spans T real rounds during
// which the process re-sends the same message and accumulates everything it
// receives, then treats the union as a single delivery. Running the
// unmodified protocol on top is equivalent to running it on the dynamic
// network 𝒢* = (G*₁, G*₍T+1₎, …), which is connected. A relay step is one
// virtual round, so Relay holds each step for T real rounds and the engine
// folds the whole block's deliveries, checking wake only at block ends.
type blockTransport struct {
	inner transport
	t     int

	// acc is the union buffer, reused across virtual rounds: a returned
	// slice is only read until the next SendAndReceive (the engine's
	// validity-window contract), so the next virtual round may overwrite
	// it. It converges to the block's accumulated degree after the first
	// virtual round, making the steady state allocation-free.
	acc []engine.Message
}

var _ transport = (*blockTransport)(nil)

func (b *blockTransport) SendAndReceive(m engine.Message) ([]engine.Message, error) {
	acc := b.acc[:0]
	for i := 0; i < b.t; i++ {
		msgs, err := b.inner.SendAndReceive(m)
		if err != nil {
			return nil, err
		}
		acc = append(acc, msgs...)
	}
	b.acc = acc
	return acc, nil
}

// Relay runs each step over one block of T real rounds.
func (b *blockTransport) Relay(m engine.Message, steps, hold int, wake func(engine.Message) bool) (engine.Message, error) {
	return b.inner.Relay(m, steps, hold*b.t, wake)
}

// Round returns the number of completed virtual rounds.
func (b *blockTransport) Round() int { return b.inner.Round() / b.t }

// PID forwards the engine process index (instrumentation only).
func (b *blockTransport) PID() int { return b.inner.PID() }

// nullValue / boxedNull are the Null message and its pre-boxed interface
// value: every non-leader acknowledgment round sends Null, so the box is
// shared simulation-wide instead of re-allocated.
//
// Boxes are pointers. *wire.Message is a direct-interface type, so asserting
// a delivery costs a pointer load instead of the 48-byte struct copy that a
// value box would force, and two deliveries of the same box compare equal by
// a single pointer comparison. The pointee is never mutated after the box is
// published (boxFor copies the value in before handing the box out).
var (
	nullValue = wire.Null()
	boxedNull = &nullValue
)

// sendAndReceive broadcasts a protocol message for one round and converts
// the received engine messages back to wire messages.
//
// Boxing m into the engine.Message interface heap-allocates, so boxFor
// reuses an existing box where it can: the rounds that go through here
// mostly re-send one message (the leader's Null wait, Halt forwarding) or
// echo a received one. A box is never mutated (the struct is copied into
// it), so the engine may keep referencing it after a newer message
// replaces it. The raw deliveries are retained in rxRaw so boxFor can
// recycle the received boxes at the next send; they are read strictly
// before the next engine call, inside the engine's inbox validity window.
func (p *Process) sendAndReceive(m wire.Message) ([]wire.Message, error) {
	raw, err := p.tr.SendAndReceive(p.boxFor(m))
	if err != nil {
		return nil, err
	}
	p.rxRaw = raw
	// The converted slice is scratch reused across rounds: no caller
	// retains it past its next sendAndReceive (mirroring the engine's
	// inbox validity window), so the per-round allocation would be waste.
	// rxBuf gets sorted in place by callers; raw is never mutated.
	if cap(p.rxBuf) < len(raw) {
		p.rxBuf = make([]wire.Message, len(raw))
	}
	out := p.rxBuf[:len(raw)]
	for i, r := range raw {
		wm, ok := wire.FromBox(r)
		if !ok {
			return nil, fmt.Errorf("core: received non-protocol message %T", r)
		}
		out[i] = wm
	}
	return out, nil
}

// relay runs up to steps BroadcastSteps (Listing 3 lines 20–26) from m as
// one engine priority broadcast (engine.Transport.Relay): the engine sends
// the held message every round and keeps the highest-priority message among
// it and everything received, by Compare. A received Halt ends the relay
// early and switches the process into the termination forwarding of
// Section 5, unless m is itself a Halt; broadcastError also ends it at a
// Reset (stopAtReset).
func (p *Process) relay(m wire.Message, steps int, stopAtReset bool) (wire.Message, error) {
	var wake func(engine.Message) bool
	switch {
	case stopAtReset:
		wake = wakeOnResetOrHalt
	case m.Label != wire.LabelHalt:
		wake = wakeOnHalt
	}
	top, err := p.tr.Relay(p.boxFor(m), steps, 1, wake)
	// The engine routed rounds for other processes meanwhile: the last raw
	// delivery is out of its validity window, and the relay's result is
	// the box worth recycling next (see boxFor).
	p.rxRaw = nil
	if err != nil {
		return m, err
	}
	pm, ok := top.(*wire.Message)
	if !ok {
		return m, fmt.Errorf("core: relayed non-protocol message %T", top)
	}
	p.relayTop = pm
	if pm.Label == wire.LabelHalt && m.Label != wire.LabelHalt {
		return *pm, p.haltForward(*pm)
	}
	return *pm, nil
}

// label returns a delivered message's label (the zero Label for a
// non-protocol message).
func label(m engine.Message) wire.Label {
	if pm, ok := m.(*wire.Message); ok {
		return pm.Label
	}
	return 0
}

// wakeOnHalt ends a relay at a Halt; wakeOnResetOrHalt also at a Reset.
func wakeOnHalt(m engine.Message) bool { return label(m) == wire.LabelHalt }

func wakeOnResetOrHalt(m engine.Message) bool {
	l := label(m)
	return l == wire.LabelHalt || l == wire.LabelReset
}

// priority is Compare on engine message boxes: the engine.Config.Priority
// that relays fold by. Two deliveries of one box compare equal by pointer;
// a non-protocol box (nil included) compares as the zero Message.
func priority(a, b engine.Message) int {
	pa, okA := a.(*wire.Message)
	pb, okB := b.(*wire.Message)
	if okA && okB {
		if pa == pb {
			return 0
		}
		return Compare(*pa, *pb)
	}
	wa, _ := wire.FromBox(a)
	wb, _ := wire.FromBox(b)
	return Compare(wa, wb)
}

// boxFor returns an immutable heap box holding m, preferring an existing
// box over a fresh allocation: the shared Null box, the last relay's result
// (the leader's acknowledgment phase re-broadcasts it), a recently created
// box (txCache — a process re-proposes the same Edge/Done at the start of
// every broadcast phase until it is accepted, so its own origination
// repeats many times), or one received last round.
func (p *Process) boxFor(m wire.Message) *wire.Message {
	if wire.Equal(m, nullValue) {
		return boxedNull
	}
	if p.relayTop != nil && wire.Equal(*p.relayTop, m) {
		return p.relayTop
	}
	for i := range p.txCache {
		if p.txCache[i].box != nil && wire.Equal(p.txCache[i].m, m) {
			return p.txCache[i].box
		}
	}
	for _, r := range p.rxRaw {
		if pm, ok := r.(*wire.Message); ok && wire.Equal(*pm, m) {
			return pm
		}
	}
	pm := new(wire.Message)
	*pm = m
	p.txCache[p.txCacheNext] = txBox{m: m, box: pm}
	p.txCacheNext = (p.txCacheNext + 1) % len(p.txCache)
	return pm
}

// SizeOf measures protocol messages for the engine's congestion accounting.
// The engine calls it once per submitted message; relayed copies carry
// their size (engine.Config.SizeOf).
func SizeOf(m engine.Message) int {
	wm, ok := wire.FromBox(m)
	if !ok {
		return 0
	}
	return wire.SizeBits(wm)
}
