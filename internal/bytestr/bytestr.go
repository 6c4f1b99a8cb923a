// Package bytestr provides the byte-level string helpers the tokenizers and
// the value layer share: a zero-copy read-only string view of a byte slice,
// so hot paths that hold text in reusable byte buffers (the tokenizer's
// scratch, the filters' text buffers) can evaluate string predicates
// without allocating a copy per event, and the one definition of XML white
// space.
package bytestr

import "unsafe"

// String returns a string sharing b's storage. The caller must guarantee
// that b is not mutated while the string is alive and that the callee does
// not retain the string beyond the call — both hold for truth-set
// Contains evaluations, which parse or compare and return. Use only on
// such transient paths; anything that stores the value must copy with
// string(b).
func String(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// IsSpace reports whether c is XML white space, the production S of XML 1.0
// (#x20 | #x9 | #xD | #xA) that XPath 1.0 uses too. Nothing else is: not a
// vertical tab or form feed, nor NEL, NBSP or any other Unicode space.
func IsSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }
