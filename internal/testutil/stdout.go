package testutil

import (
	"io"
	"os"
	"testing"
)

// CaptureStdout runs fn with os.Stdout redirected and returns what it
// printed; an error from fn fails the test with the output attached. For
// the cmd packages' run functions, which print their report directly.
func CaptureStdout(t testing.TB, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r) // a short read shows up as a failed match
		done <- string(b)
	}()
	runErr := fn()
	os.Stdout = saved
	w.Close()
	out := <-done
	if runErr != nil {
		t.Fatalf("run: %v\n%s", runErr, out)
	}
	return out
}
