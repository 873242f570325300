package graph

// Exported to the graph_test package, whose differential test also drives
// the live capture window (which imports this package).
var (
	ShapedTraces = shapedTraces
	OptsMatrix   = optsMatrix
	Expand       = expand
)
