// The benchmark is a module of its own inside the repository it
// measures: `go build ./...` at the root does not see it, and it reaches
// the engine's internal packages because its path lies under certsql/.
module certsql/bench

go 1.22

require certsql v0.0.0

replace certsql => ../
