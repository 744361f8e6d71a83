package relation

import "testing"

func TestShardRangeAndStability(t *testing.T) {
	for _, n := range []int{1, 2, 3, 8} {
		for v := int64(-50); v < 50; v++ {
			s := Shard(v, n)
			if s < 0 || s >= n {
				t.Fatalf("Shard(%d, %d) = %d out of range", v, n, s)
			}
			if s != Shard(v, n) {
				t.Fatalf("Shard(%d, %d) unstable", v, n)
			}
		}
	}
	if Shard(123, 0) != 0 || Shard(123, -4) != 0 {
		t.Fatal("non-positive shard counts must map to 0")
	}
}

func TestShardSpreadsSequentialKeys(t *testing.T) {
	// Dictionary-encoded values are small sequential integers; the mix step
	// must spread them rather than stride them onto shard = v % n.
	const n = 4
	var counts [n]int
	for v := int64(0); v < 4000; v++ {
		counts[Shard(v, n)]++
	}
	for i, c := range counts {
		if c < 600 || c > 1400 {
			t.Fatalf("shard %d got %d of 4000 sequential keys: hash does not spread", i, c)
		}
	}
}

func TestRowSetContains(t *testing.T) {
	r := MustNew("R", []string{"a", "b"}, []Tuple{{1, 2}, {1, 2}, {3, 4}})
	rs := NewRowSet(r)
	if !rs.Contains(Tuple{1, 2}) || !rs.Contains(Tuple{3, 4}) {
		t.Fatal("present rows reported absent")
	}
	if rs.Contains(Tuple{9, 9}) {
		t.Fatal("absent row reported present")
	}
	if err := rs.Remove(r, Tuple{3, 4}); err != nil {
		t.Fatal(err)
	}
	if rs.Contains(Tuple{3, 4}) {
		t.Fatal("removed row reported present")
	}
	if err := rs.Remove(r, Tuple{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !rs.Contains(Tuple{1, 2}) {
		t.Fatal("multiset lost the second occurrence")
	}
}
