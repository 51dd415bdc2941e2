package service

import (
	"bytes"
	"encoding/json"
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// FuzzJobSpec drives DecodeStrict, the request decoder both tiers share,
// with arbitrary bodies. For every body it accepts:
//
//   - Normalize, Validate and Hash never panic;
//   - Normalize is idempotent;
//   - the hash does not depend on the order of the JSON keys;
//   - the hash-neutral knobs (scheduler, compact, deadlineMS) never move
//     the hash.
//
// Objects naming one field twice under keys that differ only in case are
// skipped for the reordering property: encoding/json matches field names
// case-insensitively and keeps the last match, so such a body means
// different specs in different key orders. The checked-in corpus is under
// testdata/fuzz/FuzzJobSpec/.
func FuzzJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if err := DecodeStrict(bytes.NewReader(data), &spec); err != nil {
			return
		}
		norm := spec
		norm.Normalize()
		_ = norm.Validate()
		again := norm
		again.Normalize()
		if !reflect.DeepEqual(norm, again) {
			t.Fatalf("Normalize is not idempotent: %+v, then %+v", norm, again)
		}
		hash := spec.Hash()

		neutral := spec
		neutral.Scheduler = "parallel"
		neutral.CompactVHT = !spec.CompactVHT
		neutral.DeadlineMS = spec.DeadlineMS + 1
		if got := neutral.Hash(); got != hash {
			t.Fatalf("hash-neutral knobs moved the hash: %+v", neutral)
		}

		var fields map[string]json.RawMessage
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&fields); err != nil {
			t.Fatalf("accepted body is not a JSON object: %v", err)
		}
		keys := slices.Sorted(maps.Keys(fields))
		for i := range keys {
			for _, k := range keys[i+1:] {
				if strings.EqualFold(keys[i], k) {
					return
				}
			}
		}
		reversed := slices.Clone(keys)
		slices.Reverse(reversed)
		for _, order := range [][]string{keys, reversed} {
			var body bytes.Buffer
			body.WriteByte('{')
			for i, k := range order {
				if i > 0 {
					body.WriteByte(',')
				}
				name, _ := json.Marshal(k) // marshalling a string cannot fail
				body.Write(name)
				body.WriteByte(':')
				body.Write(fields[k])
			}
			body.WriteByte('}')
			var reordered JobSpec
			if err := DecodeStrict(&body, &reordered); err != nil {
				t.Fatalf("reordered body %s rejected: %v", body.String(), err)
			}
			if got := reordered.Hash(); got != hash {
				t.Fatalf("reordering the keys moved the hash: %+v vs %+v", reordered, spec)
			}
		}
	})
}
