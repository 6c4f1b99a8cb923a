package parallel

import (
	"slices"
	"sort"
)

// roster is a subscription set's id list in insertion order. Each Add takes
// the next sequence number, so the list is sorted by it and an id's
// position is a binary search away: removing one renumbers nothing.
type roster struct {
	ids  []string
	seqs []uint64 // seqs[i] is the sequence number of ids[i]
	seq  map[string]uint64
	next uint64
}

func (r *roster) has(id string) bool {
	_, ok := r.seq[id]
	return ok
}

// list returns a copy of the ids, non-nil even when empty.
func (r *roster) list() []string { return append([]string{}, r.ids...) }

// add appends an id the caller has checked is new.
func (r *roster) add(id string) {
	if r.seq == nil {
		r.seq = map[string]uint64{}
	}
	r.seq[id] = r.next
	r.ids = append(r.ids, id)
	r.seqs = append(r.seqs, r.next)
	r.next++
}

// pos returns id's position in ids; the id must be present.
func (r *roster) pos(id string) int {
	seq := r.seq[id]
	return sort.Search(len(r.seqs), func(i int) bool { return r.seqs[i] >= seq })
}

func (r *roster) remove(id string) bool {
	if !r.has(id) {
		return false
	}
	i := r.pos(id)
	r.ids = slices.Delete(r.ids, i, i+1)
	r.seqs = slices.Delete(r.seqs, i, i+1)
	delete(r.seq, id)
	return true
}
