package main

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBadScaleExitsOne: an -sf or -dssf that is not a finite number above
// 0 exits 1 with the flag named, and runs no experiment; the generators
// would otherwise clamp it to their smallest scale and exit 0.
func TestBadScaleExitsOne(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "prefbench")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build prefbench: %v\n%s", err, out)
	}
	for _, args := range [][]string{
		{"-sf", "-1"},
		{"-sf", "0"},
		{"-sf", "NaN"},
		{"-sf", "+Inf"},
		{"-dssf", "-1"},
		{"-dssf", "NaN"},
	} {
		out, err := exec.Command(bin, append([]string{"-exp", "fig7"}, args...)...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("prefbench %v: %v, want exit 1\n%s", args, err, out)
		}
		if !strings.Contains(string(out), args[0]) || strings.Contains(string(out), "fig7") {
			t.Errorf("prefbench %v: output does not name %s alone:\n%s", args, args[0], out)
		}
	}
}
