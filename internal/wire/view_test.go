package wire

import (
	"testing"
)

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
