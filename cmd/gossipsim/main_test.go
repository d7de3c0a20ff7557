package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunDefaultFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "32", "-f", "8", "-proto", "trivial"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"proto=trivial", "completed=true", "messages="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunMultipleSeeds(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "16", "-f", "0", "-proto", "tears", "-seeds", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "completed=true"); got != 3 {
		t.Fatalf("expected 3 runs, saw %d", got)
	}
}

func TestRunRumorsFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "8", "-f", "0", "-proto", "ears", "-rumors"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "process") {
		t.Fatal("rumor listing missing")
	}
}

func TestRunBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-proto", "bogus", "-n", "8"}, &buf); err == nil {
		t.Fatal("bogus protocol accepted")
	}
	if err := run([]string{"-badflag"}, &buf); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestRunTimelineFlag(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-n", "8", "-f", "2", "-proto", "tears", "-timeline"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "legend:") {
		t.Fatal("timeline missing from output")
	}
}
