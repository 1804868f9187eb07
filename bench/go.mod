// The benchmark is a module of its own inside the repository: its import
// path sits under deepflow/, so it may import deepflow/internal/..., while
// `go build ./...` and `go test ./...` at the root leave it alone.
module deepflow/bench

go 1.22

require deepflow v0.0.0

replace deepflow => ../
