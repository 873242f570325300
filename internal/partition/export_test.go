package partition

// The leaf-walk references, for the tests of learned trees in package
// partition_test.
var (
	RefRoute  = refRoute
	RefLocate = refLocate
)
