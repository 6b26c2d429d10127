package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestFailedWriteExits1 runs paper with -out naming a directory in which the
// one CSV it writes already exists as a directory, so the write fails. The
// command must say so and exit 1 rather than leave a partial directory
// behind with a zero status.
func TestFailedWriteExits1(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "paper")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "table3_configs.csv"), 0o755); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, "-table", "3", "-out", dir).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("paper -out with a failing write: %v, want exit status 1\n%s", err, out)
	}
	if !strings.Contains(string(out), "write:") {
		t.Errorf("paper did not report the failed write:\n%s", out)
	}
}
