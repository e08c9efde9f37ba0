package main

import (
	"context"
	"os"
	"strings"
	"testing"

	"certsql/internal/guard"
)

// capture redirects stdout while f runs.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		buf := make([]byte, 1<<16)
		var b strings.Builder
		for {
			n, err := r.Read(buf)
			if n > 0 {
				b.Write(buf[:n])
			}
			if err != nil {
				break
			}
		}
		done <- b.String()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("dispatch: %v\noutput: %s", ferr, out)
	}
	return out
}

func TestDispatchUnknown(t *testing.T) {
	err := dispatch(context.Background(), "nope", 0, 0, 0, 1, false, "", 0, guard.Limits{}, false)
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	for _, name := range []string{"fig1", "fig2", "fig4", "table1", "recall", "ablation", "orsplit", "all"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-experiment error does not name %q: %v", name, err)
		}
	}
}

func TestDispatchOrSplit(t *testing.T) {
	out := capture(t, func() error {
		return dispatch(context.Background(), "orsplit", 0, 0, 0, 1, true, "", 0, guard.Limits{}, false)
	})
	for _, want := range []string{"OR-splitting on Q2", "OR-splitting on Q4", "confused:", "Q4 translated with NoOrSplit=true"} {
		if !strings.Contains(out, want) {
			t.Errorf("orsplit output lacks %q:\n%s", want, out)
		}
	}
}

func TestDispatchFig1Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := capture(t, func() error {
		return dispatch(context.Background(), "fig1", 0.001, 1, 2, 1, true, t.TempDir(), 0, guard.Limits{}, false)
	})
	if !strings.Contains(out, "Figure 1") || !strings.Contains(out, "Q4") {
		t.Errorf("fig1 output:\n%s", out)
	}
}

func TestDispatchFig4Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := capture(t, func() error {
		return dispatch(context.Background(), "fig4", 0.001, 1, 1, 1, true, "", 2, guard.Limits{}, false)
	})
	if !strings.Contains(out, "Figure 4") {
		t.Errorf("fig4 output:\n%s", out)
	}
}
