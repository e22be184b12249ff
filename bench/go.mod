// The benchmark is a module of its own, nested in the repository's: the
// root module's `go build ./...` and `go test ./...` do not see it, and
// run.sh builds it from here. Go's internal rule goes by import path, so
// micgraph/bench may import micgraph/internal/...
module micgraph/bench

go 1.22

require micgraph v0.0.0

replace micgraph => ../
