package analysis_test

import (
	"testing"

	"micgraph/internal/analysis"
	"micgraph/internal/analysis/analysistest"
)

// TestWallclock checks the positive fixtures (direct clock reads in a
// kernel-scoped package) and that out-of-scope packages are untouched.
func TestWallclock(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.Wallclock, "bfs", "outside")
}
