package tsens_test

import (
	"fmt"
	"log"

	"tsens"
)

// The paper's running example (Figure 1 / Example 2.1): the local
// sensitivity of the four-way natural join is 4, achieved by inserting
// (a2, b2, c1) into R1.
func ExampleLocalSensitivity() {
	r1, _ := tsens.NewRelation("R1", []string{"a", "b", "c"},
		[]tsens.Tuple{{1, 1, 1}, {1, 2, 1}, {2, 1, 1}})
	r2, _ := tsens.NewRelation("R2", []string{"a", "b", "d"},
		[]tsens.Tuple{{1, 1, 1}, {2, 2, 2}})
	r3, _ := tsens.NewRelation("R3", []string{"a", "e"},
		[]tsens.Tuple{{1, 1}, {2, 1}, {2, 2}})
	r4, _ := tsens.NewRelation("R4", []string{"b", "f"},
		[]tsens.Tuple{{1, 1}, {2, 1}, {2, 2}})
	db, _ := tsens.NewDatabase(r1, r2, r3, r4)
	q, _ := tsens.ParseQuery("q", "R1(A,B,C), R2(A,B,D), R3(A,E), R4(B,F)")

	res, err := tsens.LocalSensitivity(q, db, tsens.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("count:", res.Count)
	fmt.Println("local sensitivity:", res.LS)
	fmt.Println("most sensitive relation:", res.Best.Relation)
	// Output:
	// count: 1
	// local sensitivity: 4
	// most sensitive relation: R1
}

// Tuple sensitivities of a two-way join: δ(t) counts the join partners a
// tuple has (or would have).
func ExampleTupleSensitivities() {
	orders, _ := tsens.NewRelation("Orders", []string{"cust", "order"},
		[]tsens.Tuple{{1, 10}, {1, 11}, {2, 12}})
	items, _ := tsens.NewRelation("Items", []string{"order", "item"},
		[]tsens.Tuple{{10, 100}, {10, 101}, {11, 102}})
	db, _ := tsens.NewDatabase(orders, items)
	q, _ := tsens.ParseQuery("q", "Orders(C,O), Items(O,I)")

	fn, err := tsens.TupleSensitivities(q, db, "Orders", tsens.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(fn(tsens.Tuple{1, 10})) // order 10 has two items
	fmt.Println(fn(tsens.Tuple{1, 11})) // order 11 has one item
	fmt.Println(fn(tsens.Tuple{9, 12})) // order 12 has none
	// Output:
	// 2
	// 1
	// 0
}

// Path queries run through Algorithm 1 in O(n log n) regardless of the
// output size.
func ExamplePathLocalSensitivity() {
	a, _ := tsens.NewRelation("A", []string{"x", "y"}, []tsens.Tuple{{1, 5}, {2, 5}})
	b, _ := tsens.NewRelation("B", []string{"y", "z"}, []tsens.Tuple{{5, 7}, {5, 8}, {5, 9}})
	db, _ := tsens.NewDatabase(a, b)
	q, _ := tsens.ParseQuery("q", "A(X,Y), B(Y,Z)")

	res, err := tsens.PathLocalSensitivity(q, db)
	if err != nil {
		log.Fatal(err)
	}
	// Adding another (·,5) to A creates 3 outputs; adding (5,·) to B
	// creates 2; the maximum is 3.
	fmt.Println(res.Count, res.LS)
	// Output:
	// 6 3
}

// Materialize enumerates the full join output with the Yannakakis full
// reducer.
func ExampleMaterialize() {
	a, _ := tsens.NewRelation("A", []string{"x", "y"}, []tsens.Tuple{{1, 5}, {9, 9}})
	b, _ := tsens.NewRelation("B", []string{"y", "z"}, []tsens.Tuple{{5, 7}})
	db, _ := tsens.NewDatabase(a, b)
	q, _ := tsens.ParseQuery("q", "A(X,Y), B(Y,Z)")

	out, err := tsens.Materialize(q, db)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(out.Attrs)
	for i := range out.Len() {
		fmt.Println(out.Row(i), out.Cnt[i])
	}
	// Output:
	// [X Y Z]
	// [1 5 7] 1
}
