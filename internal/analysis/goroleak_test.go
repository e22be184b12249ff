package analysis_test

import (
	"testing"

	"micgraph/internal/analysis"
	"micgraph/internal/analysis/analysistest"
)

// TestGoroleak checks goroutine-ownership detection: fire-and-forget
// spawns (named, literal, and into another package) are flagged, while
// context arguments/captures, WaitGroup registration, done/result channels,
// and supervision visible only in a same-package callee's body are owned.
// Packages outside the serving layer are not checked.
func TestGoroleak(t *testing.T) {
	analysistest.Run(t, "testdata/src", analysis.Goroleak, "goroleak", "outside")
}
