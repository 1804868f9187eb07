package deepflow_test

import (
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBenchModuleBuilds keeps the standing pipeline benchmark compiling.
// bench/ is a module of its own that `go build ./...` and `go test ./...`
// leave alone, yet it pins product names (agent.Sink, server.NewSharded,
// transport.Encode/Decode, …); without this test a product change that
// breaks it is only found when `bash bench/run.sh` next runs.
func TestBenchModuleBuilds(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("the go tool is not on PATH; cannot build the bench/ module from a test")
	}
	for _, args := range [][]string{
		{"build", "-C", "bench", "-o", filepath.Join(t.TempDir(), "bench"), "."},
		{"vet", "-C", "bench", "."},
	} {
		if out, err := exec.Command(goTool, args...).CombinedOutput(); err != nil {
			t.Fatalf("go %v: %v\n%s", args, err, out)
		}
	}
}
