//go:build paper

package experiments

import "testing"

// TestPaperClaims holds the code to the Fig. 4/5 orderings at the paper's
// million queries, in the worst of claimSeeds: about a minute on two cores.
// Run it with make paper.
func TestPaperClaims(t *testing.T) {
	report(t, checkClaims(t, paperQueries))
}
