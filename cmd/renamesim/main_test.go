package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRefusesEmptyRegisterFile runs renamesim with a register-file size
// below 1 under the baseline and the reuse scheme. Under the baseline a 0
// once built the zero layout, which the run took for the default file: it
// simulated 128 registers while its header printed 0. Each case must
// print one error line naming the flag and exit 1.
func TestRefusesEmptyRegisterFile(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "renamesim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-scheme", "baseline", "-intregs", "0"},
		{"-scheme", "baseline", "-fpregs", "0"},
		{"-scheme", "reuse", "-intregs", "0"},
		{"-scheme", "reuse", "-fpregs", "-1"},
	} {
		name := strings.Join(args, " ")
		out, err := exec.Command(bin, append([]string{"-workload", "poly_horner"}, args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: %v, want exit status 1\n%s", name, err, out)
			continue
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if flag := args[2]; len(lines) != 1 || !strings.HasPrefix(lines[0], flag+" ") {
			t.Errorf("%s: printed\n%s\nwant one error line naming %s", name, out, flag)
		}
	}
}
