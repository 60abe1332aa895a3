package graph

// Oracles exported to the external test package, which needs the real
// partitioners (internal/partition imports this package).

func OracleBuildFragments(g *Graph, owner []uint16, numWorkers int) []*Fragment {
	frags := make([]*Fragment, numWorkers)
	for i := range frags {
		frags[i] = oracleBuildFragment(g, owner, numWorkers, i)
	}
	return frags
}

func (g *Graph) OracleApplyMutations(b MutationBatch) (*Graph, MutationBatch, error) {
	return g.oracleApplyMutations(b)
}
