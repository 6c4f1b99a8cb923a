package engine

import (
	"math/bits"
	"slices"
	"strings"

	"streamxpath/internal/bytestr"
)

// Textual equality streams. Whether a value equals one of a set of string
// constants is decided by a finite automaton walked as the value's text
// arrives — an anchored Aho–Corasick walk over the constants' prefix trie —
// so a candidate of a leaf compared by textual = or != holds a cursor into
// its constants, never the text. The constants are kept sorted, so the trie
// node a prefix reaches is a range of them: a cursor is that range and the
// prefix's length, narrowed by two searches per text event. The first byte
// no constant continues kills it — the candidate is refuted for =,
// satisfied for != — and from there it costs nothing per byte.

// strIndex is a sorted set of string constants: the buckets of a textual
// equality group, or the one constant of an ungrouped textual comparison.
// prefixes counts the constants' distinct non-empty prefixes, the trie nodes
// below the root.
type strIndex struct {
	bks      []*eqBucket
	prefixes int
}

// newStrIndex returns the index of the one constant c.
func newStrIndex(c string) *strIndex {
	ix := &strIndex{}
	ix.insert(&eqBucket{str: c})
	return ix
}

// find returns where constant s is, or would be, in ix.
func (ix *strIndex) find(s string) (int, bool) {
	return slices.BinarySearchFunc(ix.bks, s, func(bk *eqBucket, s string) int {
		return strings.Compare(bk.str, s)
	})
}

// insert adds bk, whose constant ix does not hold, in order.
func (ix *strIndex) insert(bk *eqBucket) {
	i, _ := ix.find(bk.str)
	ix.prefixes += ix.fresh(i, bk.str)
	ix.bks = slices.Insert(ix.bks, i, bk)
}

// remove takes out the constant at position i.
func (ix *strIndex) remove(i int) {
	s := ix.bks[i].str
	ix.bks = slices.Delete(ix.bks, i, i+1)
	ix.prefixes -= ix.fresh(i, s)
}

// fresh returns how many prefixes of s no constant of ix has, s going in at
// position i: its length past the longest prefix it shares with a
// neighbour, in sorted order the longest it shares with any constant.
func (ix *strIndex) fresh(i int, s string) int {
	shared := 0
	if i > 0 {
		shared = commonPrefix(ix.bks[i-1].str, s)
	}
	if i < len(ix.bks) {
		shared = max(shared, commonPrefix(s, ix.bks[i].str))
	}
	return len(s) - shared
}

func commonPrefix(a, b string) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// bits is what one cursor into ix costs in the units of the Theorem 8.8
// accounting: ⌈log₂(positions+1)⌉, for the positions a cursor can be at —
// the constants' distinct prefixes, the empty one included — and dead.
func (ix *strIndex) bits() int { return bits.Len(uint(ix.prefixes + 1)) }

// cursor is a streamed candidate value: the constants of ix in [lo,hi) are
// those the off bytes of text read so far are a prefix of. It is dead when
// lo == hi: no constant continues the text. A buffering candidate's cursor
// is the zero one, with no index.
type cursor struct {
	ix          *strIndex
	lo, hi, off int
}

// live reports whether some constant still continues the text.
func (c *cursor) live() bool { return c.lo < c.hi }

// advance moves c past data and reports whether it is still live. The
// constants in range share the prefix read, so ordered by what follows it;
// one search finds the first whose rest is no less than data, a second the
// first past those that continue with data.
func (c *cursor) advance(data []byte) bool {
	d := bytestr.String(data)
	bks, off := c.ix.bks, c.off
	lo, hi := c.lo, c.hi
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); bks[mid].str[off:] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	from := lo
	for hi = c.hi; lo < hi; {
		mid := int(uint(lo+hi) >> 1)
		if s := bks[mid].str[off:]; s[:min(len(s), len(d))] <= d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.lo, c.hi, c.off = from, lo, off+len(d)
	return c.live()
}

// exact returns the constant the text read is, nil when it is none: of the
// constants in range, only the first can end where the text does.
func (c *cursor) exact() *eqBucket {
	if c.live() && len(c.ix.bks[c.lo].str) == c.off {
		return c.ix.bks[c.lo]
	}
	return nil
}
