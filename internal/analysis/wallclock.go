package analysis

import (
	"go/ast"
)

// wallclockScope is the set of packages whose code must take time through
// an injectable telemetry clock: the kernels (telemetry.Now/Since via the
// Recorder, so phase samples are bit-deterministic under a fake clock),
// the kernel table that sits between them and their callers, and the
// serving/load-generation/cluster layers (telemetry.Clock via config, so
// job latency spans and trace timestamps are deterministic in tests).
var wallclockScope = []string{"bfs", "coloring", "components", "irregular", "kernels", "kerneltest", "serve", "load", "cluster"}

// Wallclock flags direct time.Now and time.Since calls inside the scoped
// packages. Kernels must route timestamps through the Recorder's clock
// hook (telemetry.Now/Since); the serving, load and cluster layers through
// their injected telemetry.Clock — which the Nop path skips entirely and a
// test clock can make deterministic.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Doc: "clock-disciplined packages (internal/bfs, internal/coloring, internal/components, internal/irregular, internal/kernels, internal/kerneltest, internal/serve, internal/load, internal/cluster) " +
		"must not read the wall clock directly; take time via telemetry.Now/telemetry.Since or an injected telemetry.Clock " +
		"so instrumented runs can be made deterministic",
	Run: runWallclock,
}

func runWallclock(pass *Pass) error {
	if !inScope(pass.PkgPath, wallclockScope) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.Info, call)
			for _, name := range []string{"Now", "Since"} {
				if isPkgFunc(fn, "time", name) {
					pass.Reportf(call.Pos(), "direct time.%s call in clock-disciplined package: use telemetry.%s(rec, ...) or an injected telemetry.Clock so the clock is injectable", name, name)
				}
			}
			return true
		})
	}
	return nil
}
