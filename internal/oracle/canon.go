// Package oracle holds the test oracles that the tests of two or more
// packages share: the history-tree isomorphism check and the ground-truth
// weight check, the connectivity checks and the classic math/rand graph
// generator over dynnet multigraphs, and the diameter-spiking adversary.
// No binary links it; a test oracle that only one package's tests use
// lives in that package's _test.go files instead.
//
// It imports no protocol or service package (core, linear, adversary,
// service, cluster), so that the internal tests of those packages can
// import it. internal/check, the other oracle package, imports core and
// so cannot host these.
package oracle

import (
	"bytes"
	"slices"
	"strconv"

	"anondyn/internal/historytree"
)

// byteSpan addresses one substring of a scratch buffer by offsets, so
// builders can grow the buffer (invalidating pointers but not offsets)
// while names are under construction.
type byteSpan struct{ start, end int32 }

// CanonicalForm returns a string that identifies the tree up to
// isomorphism of history trees (node IDs are ignored except for the level-0
// input labels, which are structural).
//
// The form is computed by exact level-by-level color refinement: the root
// gets a fixed color; a level-0 node's color is its input; a deeper node's
// color is the pair (parent color, sorted multiset of (red-source color,
// multiplicity)). Because a history-tree node is fully determined by its
// parent and its red edges into the previous level, two trees are
// isomorphic exactly when the per-level multisets of colors coincide, which
// is what the returned string encodes. Colors are re-compressed to short
// canonical tokens after each level so the form stays linear in tree size.
//
// The output format is a public identity check (equivalence tests compare
// it byte-for-byte across implementations), so the refinement runs on
// integer color indices with token text rendered into reused byte buffers:
// the string is identical to the seed's map[string]-based construction,
// without its per-node string churn.
func CanonicalForm(t *historytree.Tree) string {
	// colorIdx[v] is the rank of v's color within its own level; tokens
	// holds the rendered token text of the previous level's colors, indexed
	// by rank. The root is the sole color of the pseudo-level -1.
	colorIdx := make(map[*historytree.Node]int32, t.NumNodes())
	colorIdx[t.Root()] = 0
	tokens := [][]byte{[]byte("r")}

	var (
		out      []byte
		nameBuf  []byte     // concatenated names of the current level
		spans    []byteSpan // per-node name extents in nameBuf
		redBuf   []byte     // rendered red sub-strings of one node
		redSpans []byteSpan
		order    []int // node indices sorted by name
		ranks    []int32
		// Token text double buffer: level l's tokens are read while level
		// l+1's are rendered, so the two levels alternate backing buffers.
		tokenBufs [2][]byte
	)
	name := func(i int) []byte { return nameBuf[spans[i].start:spans[i].end] }

	for l := 0; l <= t.Depth(); l++ {
		level := t.Level(l)
		nameBuf = nameBuf[:0]
		spans = spans[:0]
		for _, v := range level {
			start := int32(len(nameBuf))
			nameBuf = append(nameBuf, '(')
			nameBuf = append(nameBuf, tokens[colorIdx[v.Parent]]...)
			if l == 0 {
				nameBuf = append(nameBuf, "|in="...)
				nameBuf = append(nameBuf, v.Input.String()...)
			} else {
				nameBuf = append(nameBuf, '|')
				redBuf = redBuf[:0]
				redSpans = redSpans[:0]
				for _, e := range v.Red {
					rs := int32(len(redBuf))
					redBuf = append(redBuf, tokens[colorIdx[e.Src]]...)
					redBuf = append(redBuf, '*')
					redBuf = strconv.AppendInt(redBuf, int64(e.Mult), 10)
					redSpans = append(redSpans, byteSpan{rs, int32(len(redBuf))})
				}
				// Lexicographic on the rendered text, matching the seed's
				// sort.Strings over "token*mult" strings.
				slices.SortFunc(redSpans, func(a, b byteSpan) int {
					return bytes.Compare(redBuf[a.start:a.end], redBuf[b.start:b.end])
				})
				for i, sp := range redSpans {
					if i > 0 {
						nameBuf = append(nameBuf, ',')
					}
					nameBuf = append(nameBuf, redBuf[sp.start:sp.end]...)
				}
			}
			nameBuf = append(nameBuf, ')')
			spans = append(spans, byteSpan{start, int32(len(nameBuf))})
		}

		// Emit the per-level multiset of long names in sorted order.
		order = order[:0]
		for i := range level {
			order = append(order, i)
		}
		slices.SortFunc(order, func(a, b int) int { return bytes.Compare(name(a), name(b)) })
		out = append(out, 'L')
		out = strconv.AppendInt(out, int64(l), 10)
		out = append(out, ':')
		for k, i := range order {
			if k > 0 {
				out = append(out, ' ')
			}
			out = append(out, name(i)...)
		}
		out = append(out, '\n')

		// Compress each distinct name to the canonical token c<level>.<rank>
		// for the next level, ranks assigned in sorted-name order.
		if cap(ranks) < len(level) {
			ranks = make([]int32, len(level))
		} else {
			ranks = ranks[:len(level)]
		}
		tokBuf := tokenBufs[l&1][:0]
		next := make([][]byte, 0, len(level))
		rank := int32(-1)
		for k, i := range order {
			if k == 0 || !bytes.Equal(name(i), name(order[k-1])) {
				rank++
				ts := len(tokBuf)
				tokBuf = append(tokBuf, 'c')
				tokBuf = strconv.AppendInt(tokBuf, int64(l), 10)
				tokBuf = append(tokBuf, '.')
				tokBuf = strconv.AppendInt(tokBuf, int64(rank), 10)
				next = append(next, tokBuf[ts:len(tokBuf):len(tokBuf)])
			}
			ranks[i] = rank
		}
		for i, v := range level {
			colorIdx[v] = ranks[i]
		}
		tokens = next
		tokenBufs[l&1] = tokBuf
	}
	return string(out)
}

// Isomorphic reports whether two history trees are isomorphic (ignoring
// node IDs, respecting level-0 input labels and all multiplicities).
func Isomorphic(a, b *historytree.Tree) bool {
	return CanonicalForm(a) == CanonicalForm(b)
}
