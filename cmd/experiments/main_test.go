package main

import (
	"bytes"
	"io"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// paperRef is what every description must lead with: the figure or
// section of the GridBank paper the experiment reproduces. An id that
// cannot name one is a systems measurement and belongs in bench/.
var paperRef = regexp.MustCompile(`^(Figure [1-4]\b|§\d)`)

func TestRegistryIsThePaperReproduction(t *testing.T) {
	seen := make(map[string]bool)
	for _, e := range registry(io.Discard) {
		if seen[e.id] {
			t.Errorf("experiment id %q registered twice", e.id)
		}
		seen[e.id] = true
		if !paperRef.MatchString(e.desc) {
			t.Errorf("%s: description %q names no paper figure or section", e.id, e.desc)
		}
	}
}

func TestListIsSortedAndComplete(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if !sort.StringsAreSorted(lines) {
		t.Errorf("-list is not sorted:\n%s", out.String())
	}
	if want := len(registry(io.Discard)); len(lines) != want {
		t.Errorf("-list printed %d lines for %d experiments", len(lines), want)
	}
}

func TestUnknownExperimentIsAnError(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-exp", "conload"}, &out)
	if err == nil || !strings.Contains(err.Error(), `unknown experiment "conload"`) {
		t.Fatalf("err = %v", err)
	}
	if out.Len() != 0 {
		t.Errorf("an unknown id still printed:\n%s", out.String())
	}
}
