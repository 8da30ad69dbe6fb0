package main

import "testing"

// TestExperimentsPass runs every experiment in-process: a failed table,
// example, proposition or theorem check fails the test, as it fails the
// command.
func TestExperimentsPass(t *testing.T) {
	before := failures
	if code := run(experiments, nil); code != 0 {
		t.Fatalf("run = %d, %d checks failed", code, failures-before)
	}
}

func TestExitStatus(t *testing.T) {
	failing := []experiment{
		{"OK", "passes", func() { check("holds", true) }},
		{"BAD", "fails", func() { check("broken", false) }},
	}
	for _, tc := range []struct {
		ids  []string
		want int
	}{
		{[]string{"ok"}, 0},
		{nil, 1},
		{[]string{"BAD"}, 1},
		{[]string{"OK", "L1"}, 2},
	} {
		if got := run(failing, tc.ids); got != tc.want {
			t.Errorf("run(%v) = %d, want %d", tc.ids, got, tc.want)
		}
	}
}
