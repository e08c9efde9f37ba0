package main

import (
	"strings"
	"testing"
)

func TestRunClean(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-cases", "60", "-seed", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d on a clean range:\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{"fuzzcert: 60 cases", "violations:    0", "translatable:", "reference ran: map[Q/naive:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunVerboseProgress(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-cases", "1000", "-seed", "500", "-v", "-parallelism", "2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code %d:\n%s", code, out.String())
	}
	if !strings.Contains(errOut.String(), "1000/1000 cases") {
		t.Errorf("verbose mode printed no progress: %q", errOut.String())
	}
}
