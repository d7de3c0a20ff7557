package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunSingle(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-proto", "trivial", "-n", "96", "-f", "24", "-trials", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "satisfied=true") {
		t.Fatalf("dichotomy not witnessed:\n%s", out)
	}
}

func TestRunSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-proto", "sears", "-n", "128", "-f", "32", "-trials", "2", "-sweep"}, &buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "case="); got < 2 {
		t.Fatalf("sweep produced %d lines", got)
	}
}

func TestRunTooSmall(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "8", "-f", "2"}, &buf); err == nil {
		t.Fatal("tiny f accepted")
	}
}

// A sweep whose range is empty must fail, not print nothing and succeed.
func TestRunSweepBelowStart(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-n", "64", "-f", "6", "-sweep"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "nothing to run") {
		t.Fatalf("empty sweep: err = %v, output %q", err, buf.String())
	}
}
