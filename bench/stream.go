package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"tsens/internal/relation"
)

// halfStream is |S|, the length of the first half of one stream period.
const halfStream = 50000

// palindrome builds one period of the serving workloads' update stream over
// db. Its first half S has n updates in insert/delete pairs: an insert of a
// row recombined from the relation's live rows (as workload.UpdateStream
// does), then a delete of a uniformly random live row of the same relation,
// with relations picked in proportion to their size. The second half is the
// inverse of S in reverse order. Every delete hits a live row, every
// relation stays within one row of the snapshot, and replaying the whole
// period returns the database to the snapshot, so a stream repeated for as
// long as a run lasts keeps the database at a steady size. (An insert-heavy
// stream grows the database during a run, and latency then measures that
// growth instead of a steady state.)
func palindrome(db *relation.Database, n int, seed int64) []relation.Update {
	if n%2 != 0 {
		panic("palindrome: odd half length")
	}
	rng := rand.New(rand.NewSource(seed))
	var names []string
	var weights []int
	live := make(map[string][]relation.Tuple)
	total := 0
	for _, name := range db.Names() {
		rows := db.Relation(name).Rows
		if len(rows) == 0 {
			continue
		}
		cp := make([]relation.Tuple, len(rows))
		for i, t := range rows {
			cp[i] = t.Clone()
		}
		live[name] = cp
		names = append(names, name)
		weights = append(weights, len(rows))
		total += len(rows)
	}
	if total == 0 {
		panic("palindrome: empty database")
	}
	out := make([]relation.Update, 0, 2*n)
	for len(out) < n {
		// Sizes are back at the snapshot's at every pair boundary, so the
		// snapshot's sizes are the pick weights.
		k := rng.Intn(total)
		i := 0
		for k >= weights[i] {
			k -= weights[i]
			i++
		}
		name := names[i]
		rows := live[name]
		row := rows[rng.Intn(len(rows))].Clone()
		for j := range row {
			if rng.Intn(2) == 0 {
				row[j] = rows[rng.Intn(len(rows))][j]
			}
		}
		rows = append(rows, row)
		out = append(out, relation.Update{Rel: name, Row: row.Clone(), Insert: true})
		d := rng.Intn(len(rows))
		del := rows[d]
		rows[d] = rows[len(rows)-1]
		live[name] = rows[:len(rows)-1]
		out = append(out, relation.Update{Rel: name, Row: del, Insert: false})
	}
	for i := n - 1; i >= 0; i-- {
		up := out[i]
		out = append(out, relation.Update{Rel: up.Rel, Row: up.Row.Clone(), Insert: !up.Insert})
	}
	return out
}

// gcd is the greatest common divisor of two positive integers.
func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// encodeBodies renders the periodic stream as POST /updates JSON bodies of
// chunk updates each, cutting the stream into consecutive chunks and
// wrapping around the period; body k carries updates k·chunk … k·chunk +
// chunk − 1 (mod the period). The bodies repeat after the returned count.
// All encoding happens here, before any timing starts.
func encodeBodies(period []relation.Update, chunk int) [][]byte {
	p := len(period)
	bodies := make([][]byte, p/gcd(p, chunk))
	for k := range bodies {
		b := []byte(`{"updates":[`)
		for j := 0; j < chunk; j++ {
			up := period[(k*chunk+j)%p]
			if j > 0 {
				b = append(b, ',')
			}
			op := "-"
			if up.Insert {
				op = "+"
			}
			b = append(b, `{"op":"`...)
			b = append(b, op...)
			b = append(b, `","rel":`...)
			b = strconv.AppendQuote(b, up.Rel)
			b = append(b, `,"row":[`...)
			for c, v := range up.Row {
				if c > 0 {
					b = append(b, ',')
				}
				b = append(b, '"')
				b = strconv.AppendInt(b, v, 10)
				b = append(b, '"')
			}
			b = append(b, "]}"...)
		}
		b = append(b, "]}"...)
		bodies[k] = b
	}
	return bodies
}

// reference is the benchmark's own model of the served database: a
// multiset per relation, built by replaying what the benchmark sent, and
// sharing no code with the server's row store.
type reference struct {
	names []string
	attrs map[string][]string
	rows  map[string]map[string]*refRow
}

type refRow struct {
	t relation.Tuple
	n int
}

func newReference(db *relation.Database) *reference {
	r := &reference{names: db.Names(), attrs: map[string][]string{}, rows: map[string]map[string]*refRow{}}
	for _, name := range r.names {
		rel := db.Relation(name)
		r.attrs[name] = rel.Attrs
		m := make(map[string]*refRow, len(rel.Rows))
		for _, t := range rel.Rows {
			r.add(m, t)
		}
		r.rows[name] = m
	}
	return r
}

func tupleKey(t relation.Tuple) string {
	b := make([]byte, 0, 8*len(t))
	for _, v := range t {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return string(b)
}

func (r *reference) add(m map[string]*refRow, t relation.Tuple) {
	k := tupleKey(t)
	if row := m[k]; row != nil {
		row.n++
		return
	}
	m[k] = &refRow{t: t.Clone(), n: 1}
}

// apply replays one update; a delete of an absent row is an error.
func (r *reference) apply(up relation.Update) error {
	m, ok := r.rows[up.Rel]
	if !ok {
		return fmt.Errorf("update of unknown relation %q", up.Rel)
	}
	if up.Insert {
		r.add(m, up.Row)
		return nil
	}
	k := tupleKey(up.Row)
	row := m[k]
	if row == nil {
		return fmt.Errorf("delete of absent row %v from %s", up.Row, up.Rel)
	}
	if row.n--; row.n == 0 {
		delete(m, k)
	}
	return nil
}

// database materializes the multiset as a relation.Database.
func (r *reference) database() (*relation.Database, error) {
	rels := make([]*relation.Relation, 0, len(r.names))
	for _, name := range r.names {
		var rows []relation.Tuple
		for _, row := range r.rows[name] {
			for i := 0; i < row.n; i++ {
				rows = append(rows, row.t.Clone())
			}
		}
		rel, err := relation.New(name, r.attrs[name], rows)
		if err != nil {
			return nil, err
		}
		rels = append(rels, rel)
	}
	return relation.NewDatabase(rels...)
}
