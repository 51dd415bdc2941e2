package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func allLabels() []Label {
	return []Label{LabelNull, LabelBegin, LabelEnd, LabelDone, LabelEdge,
		LabelError, LabelReset, LabelInput, LabelHalt}
}

func TestConstructors(t *testing.T) {
	tests := []struct {
		name string
		msg  Message
		want Message
	}{
		{name: "null", msg: Null(), want: Message{Label: LabelNull}},
		{name: "begin", msg: Begin(7), want: Message{Label: LabelBegin, A: 7}},
		{name: "end", msg: End(), want: Message{Label: LabelEnd}},
		{name: "done", msg: Done(9), want: Message{Label: LabelDone, A: 9}},
		{name: "edge", msg: Edge(1, 2, 3), want: Message{Label: LabelEdge, A: 1, B: 2, C: 3}},
		{name: "error", msg: Error(4), want: Message{Label: LabelError, A: 4}},
		{name: "reset", msg: Reset(1, 100, 8), want: Message{Label: LabelReset, A: 1, B: 100, C: 8}},
		{name: "input-leader", msg: Input(0, -5, true), want: Message{Label: LabelInput, A: 0, B: -5, C: 1}},
		{name: "input-plain", msg: Input(1, 5, false), want: Message{Label: LabelInput, A: 1, B: 5}},
		{name: "halt", msg: Halt(12, 340), want: Message{Label: LabelHalt, A: 12, B: 340}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.msg != tt.want {
				t.Fatalf("got %+v, want %+v", tt.msg, tt.want)
			}
		})
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(labelIdx uint8, a, b, c int64) bool {
		labels := allLabels()
		m := Message{Label: labels[int(labelIdx)%len(labels)], A: a, B: b, C: c}
		// Zero out parameters the label does not carry, since they are not
		// on the wire.
		switch m.Label.arity() {
		case 0:
			m.A, m.B, m.C = 0, 0, 0
		case 1:
			m.B, m.C = 0, 0
		case 2:
			m.C = 0
		}
		buf, err := m.Encode(nil)
		if err != nil {
			return false
		}
		got, used, err := Decode(buf)
		return err == nil && used == len(buf) && got == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	tests := []struct {
		name string
		buf  []byte
	}{
		{name: "empty", buf: nil},
		{name: "unknown-label", buf: []byte{0xEE}},
		{name: "truncated-param", buf: []byte{byte(LabelEdge), 0x80}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, err := Decode(tt.buf); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

func TestEncodeUnknownLabelFails(t *testing.T) {
	if _, err := (Message{Label: Label(0xEE)}).Encode(nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestSizeBitsGrowsLogarithmically(t *testing.T) {
	// A red-edge triplet with parameters bounded by a polynomial in n must
	// encode in O(log n) bits: 8 bits label + ≤ 3 varints of ~(log n)/7
	// bytes each.
	for _, n := range []int64{4, 64, 1024, 1 << 20} {
		m := Edge(n*n, n*n, n)
		bits := SizeBits(m)
		logN := math.Log2(float64(n))
		if float64(bits) > 8+3*(2*logN/7+2)*8+24 {
			t.Errorf("n=%d: %d bits exceeds O(log n) budget", n, bits)
		}
	}
	if small, big := SizeBits(Edge(1, 1, 1)), SizeBits(Edge(1<<40, 1<<40, 1<<40)); small >= big {
		t.Errorf("sizes not monotone: %d vs %d", small, big)
	}
}

// TestSizeBitsMatchesEncoding checks the arithmetic SizeBits against the
// encoding, at every varint band edge of a parameter and of the batch
// length prefix.
func TestSizeBitsMatchesEncoding(t *testing.T) {
	msgs := []Message{Null(), Begin(3), End(), Done(500), Edge(70, 80, 90),
		Error(2), Reset(1, 100000, 16), Input(1, -7, true), Halt(9, 1234)}
	for _, v := range []int64{0, 1, -1, 63, -63, 64, -64, 65, -65, 8191, -8191,
		8192, -8192, 8193, -8193, math.MinInt64, math.MaxInt64} {
		msgs = append(msgs, Begin(v), Halt(v, -v), Edge(v, 1, v), Input(-v, v, false))
	}
	for _, ext := range []int{0, 127, 128} {
		// Each (0, 0) pair encodes in 2 bytes and (64, 0) in 3.
		pairs := make([]EdgePair, 1+ext/2)
		if ext%2 == 1 {
			pairs = append(pairs[:len(pairs)-1], EdgePair{ID2: 64})
		}
		m, err := EdgeBatch(1, pairs)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Ext) != ext {
			t.Fatalf("batch of %d pairs has a %d-byte Ext, want %d", len(pairs), len(m.Ext), ext)
		}
		msgs = append(msgs, m)
	}
	for _, m := range msgs {
		buf, err := m.Encode(nil)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if SizeBits(m) != 8*len(buf) {
			t.Errorf("%s (Ext %d bytes): SizeBits=%d, encoding is %d bits", m, len(m.Ext), SizeBits(m), 8*len(buf))
		}
	}
	// A message Encode rejects counts as one byte.
	for _, m := range []Message{{Label: Label(0xEE)}, {Label: LabelEdge, Ext: "x"}} {
		if _, err := m.Encode(nil); err == nil || SizeBits(m) != 8 {
			t.Errorf("%v: SizeBits=%d, Encode error %v; want 8 and an error", m, SizeBits(m), err)
		}
	}
}

// TestSizeBitsAllocatesNothing: SizeBits computes the length without
// encoding.
func TestSizeBitsAllocatesNothing(t *testing.T) {
	batch, err := EdgeBatch(1, []EdgePair{{2, 1}, {3, 2}})
	if err != nil {
		t.Fatal(err)
	}
	bits := 0
	allocs := testing.AllocsPerRun(100, func() {
		bits += SizeBits(Reset(12, 100000, 64)) + SizeBits(batch)
	})
	if allocs != 0 {
		t.Fatalf("SizeBits allocated %.1f objects per call pair, want 0", allocs)
	}
}

func TestStrings(t *testing.T) {
	tests := []struct {
		msg  Message
		want string
	}{
		{msg: Null(), want: "Null"},
		{msg: End(), want: "End"},
		{msg: Begin(3), want: "Begin(3)"},
		{msg: Done(4), want: "Done(4)"},
		{msg: Error(2), want: "Error(2)"},
		{msg: Edge(1, 2, 3), want: "Edge(1,2,3)"},
		{msg: Reset(1, 2, 3), want: "Reset(1,2,3)"},
	}
	for _, tt := range tests {
		if got := tt.msg.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
	if Label(0xEE).String() != "Label(238)" {
		t.Errorf("unknown label string: %s", Label(0xEE))
	}
}

func TestDecodeTrailingBytesReported(t *testing.T) {
	buf, err := Done(5).Encode(nil)
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, 0xFF, 0xFF)
	m, used, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if m != Done(5) || used != len(buf)-2 {
		t.Fatalf("m=%v used=%d", m, used)
	}
}

// Encode appends the wire encoding of m to buf and returns the result:
// one label byte followed by the varint parameters (zig-zag, so the
// occasional negative input value is legal).
func (m Message) Encode(buf []byte) ([]byte, error) {
	k := m.Label.arity()
	if k < 0 {
		return nil, fmt.Errorf("wire: unknown label %d", m.Label)
	}
	buf = append(buf, byte(m.Label))
	params := [3]int64{m.A, m.B, m.C}
	for i := 0; i < k; i++ {
		buf = binary.AppendVarint(buf, params[i])
	}
	if m.Label == LabelEdgeBatch {
		buf = binary.AppendUvarint(buf, uint64(len(m.Ext)))
		buf = append(buf, m.Ext...)
	} else if len(m.Ext) != 0 {
		return nil, fmt.Errorf("wire: Ext payload on %s message", m.Label)
	}
	return buf, nil
}

// Decode parses one message from buf and returns it along with the number
// of bytes consumed.
func Decode(buf []byte) (Message, int, error) {
	if len(buf) == 0 {
		return Message{}, 0, fmt.Errorf("wire: empty buffer")
	}
	m := Message{Label: Label(buf[0])}
	k := m.Label.arity()
	if k < 0 {
		return Message{}, 0, fmt.Errorf("wire: unknown label %d", buf[0])
	}
	off := 1
	params := [3]*int64{&m.A, &m.B, &m.C}
	for i := 0; i < k; i++ {
		v, n := binary.Varint(buf[off:])
		if n <= 0 {
			return Message{}, 0, fmt.Errorf("wire: truncated parameter %d of %s", i, m.Label)
		}
		// Reject non-minimal varints: stdlib Varint tolerates padded
		// encodings (e.g. "ff 00" for -64), which would give one message
		// two wire forms and break the codec bijection SizeBits accounting
		// relies on (found by FuzzMessageCodec).
		if ux := uint64(v)<<1 ^ uint64(v>>63); n != uvarintLen(ux) {
			return Message{}, 0, fmt.Errorf("wire: non-canonical parameter %d of %s", i, m.Label)
		}
		*params[i] = v
		off += n
	}
	if m.Label == LabelEdgeBatch {
		extLen, n := binary.Uvarint(buf[off:])
		if n <= 0 {
			return Message{}, 0, fmt.Errorf("wire: truncated batch length")
		}
		if n != uvarintLen(extLen) {
			return Message{}, 0, fmt.Errorf("wire: non-canonical batch length")
		}
		off += n
		if uint64(len(buf[off:])) < extLen {
			return Message{}, 0, fmt.Errorf("wire: truncated batch payload")
		}
		m.Ext = string(buf[off : off+int(extLen)])
		off += int(extLen)
		// A batch whose payload is not a whole number of (ID2, Mult)
		// varint pairs would decode "successfully" yet be uninterpretable
		// by ExtPairs; reject it here so Decode acceptance implies a fully
		// readable message (found by FuzzMessageCodec).
		if err := validExt(m.Ext); err != nil {
			return Message{}, 0, err
		}
	}
	return m, off, nil
}

// validExt scans a batch payload and verifies it is a whole number of
// varint pairs, without allocating the pair slice ExtPairs builds.
func validExt(ext string) error {
	buf := []byte(ext)
	for len(buf) > 0 {
		for _, field := range [2]string{"ID2", "Mult"} {
			_, k := binary.Varint(buf)
			if k <= 0 {
				return fmt.Errorf("wire: truncated batch %s", field)
			}
			buf = buf[k:]
		}
	}
	return nil
}
