package core

// Fixtures of this package's tests, shared with the external core_test
// package (whose tests import packages that import core).
var (
	Figure1Query = figure1Query
	Figure1DB    = figure1DB
)
