// Package wire defines the concrete wire format of the congested protocol's
// messages and measures their size in bits.
//
// Section 3.2 of the paper specifies that every message consists of a
// constant-size label plus at most three integer parameters, and Corollary
// 4.9 argues that all parameters stay polynomial in n, so messages fit in
// O(log n) bits. This package makes that concrete: a message's wire form is
// one label byte followed by the varint encodings of its parameters, and
// SizeBits reports the exact size of that form, which the engine uses for
// congestion accounting and limit enforcement. SizeBits computes the size
// without encoding; the codec that defines the bits (Encode, Decode) is
// its oracle in this package's tests.
package wire

import (
	"encoding/binary"
	"fmt"
)

// Label identifies the message type. The numeric order of labels is NOT the
// broadcast priority (see package core for the priority relation); labels
// merely tag the wire format.
type Label uint8

// Message labels, covering Section 3.2 plus the Section 5 extensions
// (Input messages build level 0 for Generalized Counting; Halt messages
// implement simultaneous termination).
const (
	LabelNull Label = iota + 1
	LabelBegin
	LabelEnd
	LabelDone
	LabelEdge
	LabelError
	LabelReset
	LabelInput
	LabelHalt
	LabelEdgeBatch
)

// String implements fmt.Stringer.
func (l Label) String() string {
	switch l {
	case LabelNull:
		return "Null"
	case LabelBegin:
		return "Begin"
	case LabelEnd:
		return "End"
	case LabelDone:
		return "Done"
	case LabelEdge:
		return "Edge"
	case LabelError:
		return "Error"
	case LabelReset:
		return "Reset"
	case LabelInput:
		return "Input"
	case LabelHalt:
		return "Halt"
	case LabelEdgeBatch:
		return "EdgeBatch"
	default:
		return fmt.Sprintf("Label(%d)", uint8(l))
	}
}

// Message is one protocol message: a label and at most three integer
// parameters whose meaning depends on the label:
//
//	Null:  —
//	Begin: A = sender's ID
//	End:   —
//	Done:  A = ID
//	Edge:  A = ID1, B = ID2, C = Mult
//	Error: A = ErrorLevel
//	Reset: A = ResetLevel, B = StartingRound, C = NewDiam
//	Input: A = ID1 (the L0 class ID claiming the input), B = input value,
//	       C = 1 if the sender is the leader
//	Halt:  A = n, B = final round
//
// All parameters are non-negative except Input's B, which carries an
// arbitrary input value (zig-zag encoded).
type Message struct {
	Label   Label
	A, B, C int64
	// Ext carries the batched follow-up (ID2, Mult) pairs of an EdgeBatch
	// message, pre-encoded as interleaved zig-zag varints (the Section 6
	// message-size/running-time tradeoff). It is empty for every other
	// label — plain Edge messages pay no batching overhead on the wire.
	// Keeping it a string preserves the comparability of Message values,
	// which the acknowledgment protocol relies on.
	Ext string
}

// Equal reports a == b, spelled out field by field so the comparison
// inlines at simulation hot-path call sites. The string field keeps the
// compiler from reducing whole-struct equality to a memequal, so the plain
// == operator compiles to a call of the generated equality function —
// measurable when priority broadcast compares every delivery against the
// held message each round. Integer fields are checked first: they decide
// almost every unequal pair, and for equal pairs Ext is nearly always
// empty, making the string comparison a pair of zero-length checks.
func Equal(a, b Message) bool {
	return a.Label == b.Label && a.A == b.A && a.B == b.B && a.C == b.C &&
		a.Ext == b.Ext
}

// FromBox extracts a Message from an engine delivery box. The simulation
// boxes *Message pointers — a direct-interface type, so the assert is a
// pointer load instead of a 48-byte struct copy — and FromBox accepts
// nothing else: any other box, a Message value included, reports false.
func FromBox(box any) (Message, bool) {
	if m, ok := box.(*Message); ok {
		return *m, true
	}
	return Message{}, false
}

// EdgePair is one batched observation: the pair (ID2, Mult) of an ObsList
// entry.
type EdgePair struct {
	ID2, Mult int64
}

// EdgeBatch returns an Edge message whose first triplet is
// (id1, pairs[0].ID2, pairs[0].Mult) and whose Ext carries the remaining
// pairs. pairs must be non-empty.
func EdgeBatch(id1 int64, pairs []EdgePair) (Message, error) {
	if len(pairs) == 0 {
		return Message{}, fmt.Errorf("wire: empty edge batch")
	}
	m := Edge(id1, pairs[0].ID2, pairs[0].Mult)
	if len(pairs) == 1 {
		return m, nil
	}
	m.Label = LabelEdgeBatch
	var buf []byte
	for _, p := range pairs[1:] {
		buf = binary.AppendVarint(buf, p.ID2)
		buf = binary.AppendVarint(buf, p.Mult)
	}
	m.Ext = string(buf)
	return m, nil
}

// ExtPairs decodes the batched follow-up pairs of an Edge message
// (excluding the leading triplet). It returns nil for an unbatched edge.
func (m Message) ExtPairs() ([]EdgePair, error) {
	if len(m.Ext) == 0 {
		return nil, nil
	}
	buf := []byte(m.Ext)
	var out []EdgePair
	for len(buf) > 0 {
		id2, k := binary.Varint(buf)
		if k <= 0 {
			return nil, fmt.Errorf("wire: truncated batch ID2")
		}
		buf = buf[k:]
		mult, k := binary.Varint(buf)
		if k <= 0 {
			return nil, fmt.Errorf("wire: truncated batch Mult")
		}
		buf = buf[k:]
		out = append(out, EdgePair{ID2: id2, Mult: mult})
	}
	return out, nil
}

// Constructors, mirroring the pseudocode's message creation sites.

// Null returns the lowest-priority filler message.
func Null() Message { return Message{Label: LabelNull} }

// Begin returns a level-begin message carrying the sender's ID.
func Begin(id int64) Message { return Message{Label: LabelBegin, A: id} }

// End returns a level-end message.
func End() Message { return Message{Label: LabelEnd} }

// Done returns a done message for the given ID.
func Done(id int64) Message { return Message{Label: LabelDone, A: id} }

// Edge returns a red-edge message for the triplet (id1, id2, mult).
func Edge(id1, id2, mult int64) Message {
	return Message{Label: LabelEdge, A: id1, B: id2, C: mult}
}

// Error returns an error message for the given level.
func Error(level int64) Message { return Message{Label: LabelError, A: level} }

// Reset returns a reset message (Listing 6, MakeResetMessage).
func Reset(level, startingRound, newDiam int64) Message {
	return Message{Label: LabelReset, A: level, B: startingRound, C: newDiam}
}

// Input returns a level-0 input-claim message (Section 5, General
// computation).
func Input(id, value int64, leader bool) Message {
	c := int64(0)
	if leader {
		c = 1
	}
	return Message{Label: LabelInput, A: id, B: value, C: c}
}

// Halt returns a simultaneous-termination message (Section 5).
func Halt(n, finalRound int64) Message { return Message{Label: LabelHalt, A: n, B: finalRound} }

// String renders the message for logs and test failures.
func (m Message) String() string {
	switch m.Label {
	case LabelNull, LabelEnd:
		return m.Label.String()
	case LabelBegin, LabelDone, LabelError:
		return fmt.Sprintf("%s(%d)", m.Label, m.A)
	default:
		return fmt.Sprintf("%s(%d,%d,%d)", m.Label, m.A, m.B, m.C)
	}
}

// arity returns how many parameters each label encodes.
func (l Label) arity() int {
	switch l {
	case LabelNull, LabelEnd:
		return 0
	case LabelBegin, LabelDone, LabelError:
		return 1
	case LabelHalt:
		return 2
	case LabelEdge, LabelReset, LabelInput, LabelEdgeBatch:
		return 3
	default:
		return -1
	}
}

// uvarintLen returns the length of the minimal uvarint encoding of x.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// SizeBits returns the exact encoded size of m in bits, as the codec in
// this package's tests (Encode) writes it: the label byte, the zig-zag
// varint of each parameter, and for an EdgeBatch the Ext length prefix and
// payload. It computes the length
// without encoding, so it allocates nothing. A message Encode rejects (an
// unknown label, or Ext on another label) counts as a single byte
// (defensive; the constructors produce neither).
func SizeBits(m Message) int {
	k := m.Label.arity()
	if k < 0 || (len(m.Ext) != 0 && m.Label != LabelEdgeBatch) {
		return 8
	}
	size := 1
	params := [3]int64{m.A, m.B, m.C}
	for _, v := range params[:k] {
		size += uvarintLen(uint64(v)<<1 ^ uint64(v>>63))
	}
	if m.Label == LabelEdgeBatch {
		size += uvarintLen(uint64(len(m.Ext))) + len(m.Ext)
	}
	return 8 * size
}
