// Canonical step keys: a normal form for location steps that lets
// structurally identical steps from different queries unify. The shared
// multi-query engine (internal/engine) and the merged automaton
// (internal/automaton) build their prefix-sharing indexes over these keys,
// so two subscriptions whose queries begin //catalog/item[...] share one
// state per common step no matter how the source text was spelled
// (whitespace, predicate formatting, etc. normalize away in the AST).
package query

import "bytes"

// StepKey returns the canonical key of a single location step: its axis,
// node test, and — if present — the canonical rendering of its full
// predicate expression (which recursively covers the predicate subtrees).
// Two query nodes have equal StepKeys iff they test the same axis and name
// and carry structurally identical predicates, which is exactly the
// condition under which a shared engine may evaluate the step once for
// both owners.
func StepKey(n *Node) string {
	var b bytes.Buffer
	writeStepKey(&b, n)
	return b.String()
}

// AppendStepKey appends StepKey(n) to dst and returns the extended buffer:
// a caller that looks keys up in a reused buffer allocates nothing once it
// has grown.
func AppendStepKey(dst []byte, n *Node) []byte {
	b := bytes.NewBuffer(dst)
	writeStepKey(b, n)
	return b.Bytes()
}

func writeStepKey(b *bytes.Buffer, n *Node) {
	b.WriteString(n.Axis.String())
	b.WriteString(n.NTest)
	if n.Pred != nil {
		b.WriteByte('[')
		n.Pred.write(b)
		b.WriteByte(']')
	}
}

// SpineKey returns the canonical keys of the root succession of q (its
// "spine": the steps from the root to OUT(Q)), in order. Prefix-sharing
// indexes intern spine steps top-down, so queries agreeing on the first k
// keys share k states.
func (q *Query) SpineKey() []string {
	var out []string
	for n := q.Root.Successor; n != nil; n = n.Successor {
		out = append(out, StepKey(n))
	}
	return out
}

// Key returns the canonical key of the whole query: the concatenated spine
// keys. Because StepKey covers predicates recursively, two queries have
// equal Keys iff their trees are structurally identical; a dissemination
// engine can then evaluate one of them and fan the answer out to all
// subscriptions sharing the key.
func (q *Query) Key() string {
	var b bytes.Buffer
	for n := q.Root.Successor; n != nil; n = n.Successor {
		writeStepKey(&b, n)
	}
	return b.String()
}
