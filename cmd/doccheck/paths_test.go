package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestPathsFixture runs the path check over testdata/paths, whose DESIGN.md
// cites two paths the fixture has (one with a full stop after it, one with
// an exported and an unexported Go identifier after it) and two it lacks,
// and checks it flags exactly the two. The default doccheck run, a CI step,
// applies the same check to the repository's own docs.
func TestPathsFixture(t *testing.T) {
	got, err := checkPaths("testdata/paths", []string{"DESIGN.md"})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"DESIGN.md:1: internal/gone/modes.go does not exist",
		"DESIGN.md:2: cmd/missing-tool does not exist",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
