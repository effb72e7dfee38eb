package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExitCodes pins the contract CI's lint steps branch on: 0 clean,
// 1 findings, 2 operational error.
func TestExitCodes(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "preflint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build preflint: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{"./internal/value"}, 0},
		{[]string{"-only", "publishorder", "./internal/lint/testdata/src/publishorder"}, 1},
		{[]string{"-only", "batchwrite", "./internal/value"}, 2},     // retired name
		{[]string{"-only", "batchlifetime", "./internal/value"}, 2},  // retired name
		{[]string{"-only", "batchownership", "./internal/value"}, 2}, // retired name
		{[]string{"-only", "partownership", "./internal/value"}, 2},  // retired name
		{[]string{"-skip", "happensbefore", "./internal/value"}, 2},  // retired name
		{[]string{"-sarif", "./internal/value"}, 2},                  // retired flag
		{[]string{"./no/such/dir"}, 2},
	} {
		cmd := exec.Command(bin, tc.args...)
		cmd.Dir = filepath.Join("..", "..") // the module root, as in CI
		out, err := cmd.CombinedOutput()
		code := 0
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			code = exit.ExitCode()
		} else if err != nil {
			t.Fatalf("preflint %v: %v", tc.args, err)
		}
		if code != tc.want {
			t.Errorf("preflint %v exited %d, want %d\n%s", tc.args, code, tc.want, out)
		}
	}
}
