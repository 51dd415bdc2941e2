package linear

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// This file defines the wire format of the linear-time protocol's
// full-information messages (Di Luna–Viglietta, FOCS 2022 / arXiv
// 2204.02128): a View is a process's entire hash-consed history-tree view,
// shipped wholesale every round. Unlike the congested protocol's
// constant-arity wire.Messages, Views grow with the run — Θ(n³ log n) bits
// in the worst case — which is exactly the tradeoff the E17 experiment
// measures. The encoding is canonical (content-ordered, minimal varints),
// so equal abstract views encode to identical bytes regardless of which
// process or run produced them, and its size does not depend on the order
// in which processes built their views. Encode, DecodeView and SizeBits are
// the definition of a message's cost: the sizer (sizer.go) computes that
// size without building a View, and RunCheckingBits checks every message
// against SizeBits. No binary needs the codec, so it lives here, beside the
// tests that use it.

// ViewRed is one red multi-edge of a view class: the position (index into
// View.Classes) of the source class one level up, and the multiplicity
// with which it was heard.
type ViewRed struct {
	// Src is the index of the source class in View.Classes.
	Src int32
	// Mult is the number of deliveries heard from that class.
	Mult int32
}

// ViewClass is one history-tree class of a View. Classes reference each
// other positionally: Parent and ViewRed.Src are indices into
// View.Classes, which the canonical order guarantees point strictly
// backwards (parents and red sources precede their dependents).
type ViewClass struct {
	// Level is the class's history-tree level (0 = input partition).
	Level int32
	// Parent is the index of the parent class, or -1 for level-0 classes.
	Parent int32
	// Reds are the red multi-edges, sorted by Src.
	Reds []ViewRed
	// Leader and Value carry the input of a level-0 class and are zero
	// for every deeper class.
	Leader bool
	Value  int64
}

// View is a full-information message: the sender's complete view of the
// history tree plus the position of the class currently representing the
// sender. Classes must be in canonical order (levels ascending, and
// within a level ordered by input for level 0 and by (Parent, Reds) for
// deeper levels); Encode rejects nothing, but DecodeView enforces the
// backward-reference discipline, so only well-formed Views round-trip.
type View struct {
	// Classes is the view's class set in canonical order.
	Classes []ViewClass
	// Self is the index of the sender's current class in Classes.
	Self int32
}

// Encode appends the canonical wire encoding of v to buf and returns the
// result: a class count, then per class its level, parent reference
// (+1, so 0 means none), red edges and — for level 0 — the input, all as
// minimal varints, and finally the sender's class position.
func (v *View) Encode(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(v.Classes)))
	for _, c := range v.Classes {
		buf = binary.AppendUvarint(buf, uint64(c.Level))
		buf = binary.AppendUvarint(buf, uint64(c.Parent+1))
		buf = binary.AppendUvarint(buf, uint64(len(c.Reds)))
		for _, r := range c.Reds {
			buf = binary.AppendUvarint(buf, uint64(r.Src))
			buf = binary.AppendUvarint(buf, uint64(r.Mult))
		}
		if c.Level == 0 {
			flag := byte(0)
			if c.Leader {
				flag = 1
			}
			buf = append(buf, flag)
			buf = binary.AppendVarint(buf, c.Value)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(v.Self))
	return buf
}

// SizeBits returns the exact encoded size of v in bits — the honest cost
// a congested network would have to pay to ship the view.
func (v *View) SizeBits() int {
	bits := uvarintLen64(uint64(len(v.Classes))) * 8
	for _, c := range v.Classes {
		bits += uvarintLen64(uint64(c.Level)) * 8
		bits += uvarintLen64(uint64(c.Parent+1)) * 8
		bits += uvarintLen64(uint64(len(c.Reds))) * 8
		for _, r := range c.Reds {
			bits += (uvarintLen64(uint64(r.Src)) + uvarintLen64(uint64(r.Mult))) * 8
		}
		if c.Level == 0 {
			zz := uint64(c.Value)<<1 ^ uint64(c.Value>>63)
			bits += 8 + uvarintLen64(zz)*8
		}
	}
	bits += uvarintLen64(uint64(v.Self)) * 8
	return bits
}

// viewUvarint reads one minimal uvarint, rejecting padded encodings so
// the codec stays a bijection (the same discipline Decode applies to
// Messages).
func viewUvarint(buf []byte, what string) (uint64, int, error) {
	u, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, 0, fmt.Errorf("wire: truncated view %s", what)
	}
	if n != uvarintLen64(u) {
		return 0, 0, fmt.Errorf("wire: non-canonical view %s", what)
	}
	return u, n, nil
}

// DecodeView parses one View from buf and returns it along with the
// number of bytes consumed. It enforces structural well-formedness:
// parent and red-source references must point to earlier positions,
// levels must never decrease along the class list, level-0 classes have
// no parent and no reds, deeper classes have a parent at the previous
// level, and the self reference must be in range.
func DecodeView(buf []byte) (*View, int, error) {
	count, off, err := viewUvarint(buf, "class count")
	if err != nil {
		return nil, 0, err
	}
	if count > uint64(len(buf)) {
		// Each class costs at least one byte; cheap guard against
		// attacker-sized allocations.
		return nil, 0, fmt.Errorf("wire: view class count %d exceeds buffer", count)
	}
	v := &View{Classes: make([]ViewClass, count)}
	levels := make([]int32, count)
	lastLevel := int32(0)
	for i := range v.Classes {
		c := &v.Classes[i]
		lvl, n, err := viewUvarint(buf[off:], "level")
		if err != nil {
			return nil, 0, err
		}
		off += n
		c.Level = int32(lvl)
		if c.Level < lastLevel {
			return nil, 0, fmt.Errorf("wire: view levels not ascending at class %d", i)
		}
		lastLevel = c.Level
		levels[i] = c.Level
		par, n, err := viewUvarint(buf[off:], "parent")
		if err != nil {
			return nil, 0, err
		}
		off += n
		c.Parent = int32(par) - 1
		if c.Level == 0 {
			if c.Parent != -1 {
				return nil, 0, fmt.Errorf("wire: level-0 class %d has a parent", i)
			}
		} else {
			if c.Parent < 0 || int(c.Parent) >= i {
				return nil, 0, fmt.Errorf("wire: class %d parent %d not an earlier position", i, c.Parent)
			}
			if levels[c.Parent] != c.Level-1 {
				return nil, 0, fmt.Errorf("wire: class %d at level %d has parent at level %d",
					i, c.Level, levels[c.Parent])
			}
		}
		nr, n, err := viewUvarint(buf[off:], "red count")
		if err != nil {
			return nil, 0, err
		}
		off += n
		if nr > uint64(len(buf)) {
			return nil, 0, fmt.Errorf("wire: view red count %d exceeds buffer", nr)
		}
		if nr > 0 && c.Level == 0 {
			return nil, 0, fmt.Errorf("wire: level-0 class %d has red edges", i)
		}
		if nr > 0 {
			c.Reds = make([]ViewRed, nr)
		}
		prevSrc := int32(-1)
		for j := range c.Reds {
			src, n, err := viewUvarint(buf[off:], "red source")
			if err != nil {
				return nil, 0, err
			}
			off += n
			mult, n2, err := viewUvarint(buf[off:], "red multiplicity")
			if err != nil {
				return nil, 0, err
			}
			off += n2
			r := &c.Reds[j]
			r.Src = int32(src)
			r.Mult = int32(mult)
			if int(r.Src) >= i {
				return nil, 0, fmt.Errorf("wire: class %d red source %d not an earlier position", i, r.Src)
			}
			if r.Src <= prevSrc {
				return nil, 0, fmt.Errorf("wire: class %d red sources not strictly ascending", i)
			}
			prevSrc = r.Src
			if r.Mult < 1 {
				return nil, 0, fmt.Errorf("wire: class %d red multiplicity %d < 1", i, r.Mult)
			}
		}
		if c.Level == 0 {
			if off >= len(buf) {
				return nil, 0, fmt.Errorf("wire: truncated view input flag")
			}
			switch buf[off] {
			case 0:
			case 1:
				c.Leader = true
			default:
				return nil, 0, fmt.Errorf("wire: view input flag %d not 0 or 1", buf[off])
			}
			off++
			val, n := binary.Varint(buf[off:])
			if n <= 0 {
				return nil, 0, fmt.Errorf("wire: truncated view input value")
			}
			if zz := uint64(val)<<1 ^ uint64(val>>63); n != uvarintLen64(zz) {
				return nil, 0, fmt.Errorf("wire: non-canonical view input value")
			}
			c.Value = val
			off += n
		}
	}
	self, n, err := viewUvarint(buf[off:], "self reference")
	if err != nil {
		return nil, 0, err
	}
	off += n
	if self >= count {
		return nil, 0, fmt.Errorf("wire: view self reference %d out of range", self)
	}
	v.Self = int32(self)
	return v, off, nil
}

// sampleView is a small well-formed view: a 3-class input partition at
// level 0 and two refined classes at level 1.
func sampleView() *View {
	return &View{
		Classes: []ViewClass{
			{Level: 0, Parent: -1, Leader: true},
			{Level: 0, Parent: -1, Value: 7},
			{Level: 0, Parent: -1, Value: -3},
			{Level: 1, Parent: 0, Reds: []ViewRed{{Src: 1, Mult: 2}, {Src: 2, Mult: 1}}},
			{Level: 1, Parent: 1, Reds: []ViewRed{{Src: 0, Mult: 1}}},
		},
		Self: 4,
	}
}

func viewsEqual(a, b *View) bool {
	if a.Self != b.Self || len(a.Classes) != len(b.Classes) {
		return false
	}
	for i, c := range a.Classes {
		d := b.Classes[i]
		if c.Level != d.Level || c.Parent != d.Parent || c.Leader != d.Leader ||
			c.Value != d.Value || len(c.Reds) != len(d.Reds) {
			return false
		}
		for j, r := range c.Reds {
			if r != d.Reds[j] {
				return false
			}
		}
	}
	return true
}

func TestViewRoundTrip(t *testing.T) {
	v := sampleView()
	buf := v.Encode(nil)
	got, n, err := DecodeView(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != len(buf) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(buf))
	}
	if !viewsEqual(v, got) {
		t.Fatalf("round trip changed the view:\n  in:  %+v\n  out: %+v", v, got)
	}
	if bits := v.SizeBits(); bits != 8*len(buf) {
		t.Fatalf("SizeBits = %d, encoded length says %d", bits, 8*len(buf))
	}
}

func TestViewDecodeRejectsMalformed(t *testing.T) {
	base := sampleView()
	cases := []struct {
		name   string
		mutate func(v *View)
	}{
		{"parent-forward", func(v *View) { v.Classes[3].Parent = 4 }},
		{"parent-on-level0", func(v *View) { v.Classes[0].Parent = 1 }},
		{"red-forward", func(v *View) { v.Classes[3].Reds[0].Src = 3 }},
		{"red-unsorted", func(v *View) { v.Classes[3].Reds[0].Src = 2 }},
		{"red-zero-mult", func(v *View) { v.Classes[3].Reds[0].Mult = 0 }},
		{"reds-on-level0", func(v *View) { v.Classes[0].Reds = []ViewRed{{Src: 0, Mult: 1}} }},
		{"self-out-of-range", func(v *View) { v.Self = 5 }},
		{"levels-descend", func(v *View) {
			v.Classes[2], v.Classes[3] = v.Classes[3], v.Classes[2]
		}},
		{"parent-skips-level", func(v *View) {
			v.Classes[3].Level = 2
			v.Classes[4].Level = 2
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			v := sampleView()
			tc.mutate(v)
			if _, _, err := DecodeView(v.Encode(nil)); err == nil {
				t.Fatalf("decode accepted a malformed view (%s)", tc.name)
			}
		})
	}
	if _, _, err := DecodeView(nil); err == nil {
		t.Fatal("decode accepted an empty buffer")
	}
	buf := base.Encode(nil)
	for cut := 1; cut < len(buf); cut++ {
		if _, _, err := DecodeView(buf[:cut]); err == nil {
			t.Fatalf("decode accepted a %d-byte truncation of a %d-byte view", cut, len(buf))
		}
	}
}
