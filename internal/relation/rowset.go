package relation

import (
	"encoding/binary"
	"fmt"
)

// RowSet tracks the multiset of rows of one relation together with their
// positions, so deletes validate membership and run in O(1) (swap-remove)
// instead of scanning the relation. The incremental session and the serving
// layer both maintain live relations through it.
type RowSet struct {
	pos map[string][]int
}

// rowSetKey encodes a tuple as a byte-string map key.
func rowSetKey(t Tuple) string {
	b := make([]byte, 8*len(t))
	for i, v := range t {
		binary.LittleEndian.PutUint64(b[8*i:], uint64(v))
	}
	return string(b)
}

// NewRowSet indexes the current rows of r.
func NewRowSet(r *Relation) *RowSet {
	rs := &RowSet{pos: make(map[string][]int, len(r.Rows))}
	for i, t := range r.Rows {
		k := rowSetKey(t)
		rs.pos[k] = append(rs.pos[k], i)
	}
	return rs
}

// Insert appends a private clone of t to r and indexes it.
func (rs *RowSet) Insert(r *Relation, t Tuple) {
	row := t.Clone()
	k := rowSetKey(row)
	rs.pos[k] = append(rs.pos[k], len(r.Rows))
	r.Rows = append(r.Rows, row)
}

// Remove deletes one occurrence of t from r, as TryRemove does, but makes
// removing an absent tuple an error.
func (rs *RowSet) Remove(r *Relation, t Tuple) error {
	if !rs.TryRemove(r, t) {
		return fmt.Errorf("relation: delete of absent tuple %v from %s", t, r.Name)
	}
	return nil
}

// TryRemove deletes one occurrence of t from r (swap-remove), keeping the
// position map of the moved row accurate, and reports whether t was
// present; absent tuples leave r untouched.
func (rs *RowSet) TryRemove(r *Relation, t Tuple) bool {
	k := rowSetKey(t)
	list := rs.pos[k]
	if len(list) == 0 {
		return false
	}
	i := list[len(list)-1]
	if len(list) == 1 {
		delete(rs.pos, k)
	} else {
		rs.pos[k] = list[:len(list)-1]
	}
	last := len(r.Rows) - 1
	if i != last {
		moved := r.Rows[last]
		r.Rows[i] = moved
		mk := rowSetKey(moved)
		ml := rs.pos[mk]
		for j := len(ml) - 1; j >= 0; j-- {
			if ml[j] == last {
				ml[j] = i
				break
			}
		}
	}
	r.Rows = r.Rows[:last]
	return true
}

// Contains reports whether at least one occurrence of t is indexed.
func (rs *RowSet) Contains(t Tuple) bool {
	return len(rs.pos[rowSetKey(t)]) > 0
}
