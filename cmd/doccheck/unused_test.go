package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestUnusedFixture runs the pass over testdata/unused, a module whose
// library holds one declaration per case the reachability rule decides,
// and checks it flags exactly the unreached ones.
func TestUnusedFixture(t *testing.T) {
	allow := map[string]string{
		"fixture/lib.register": "stale: a var initializer reaches it",
		"fixture/lib.Gone":     "stale: no such declaration",
	}
	got, err := findUnused([]string{"testdata/unused"}, allow)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, line := range got {
		if !strings.HasPrefix(line, "doccheck: ") && !strings.HasPrefix(line, "testdata/unused/lib/lib.go:") {
			t.Errorf("finding outside the library: %s", line)
		}
		names = append(names, line[strings.LastIndex(line, ": ")+2:])
	}
	want := []string{
		"lib.Unreferenced is reached from no main package",
		"lib.Orphan is reached from no main package",
		"lib.NewOrphan is reached from no main package",
		"lib.Orphan.String is reached from no main package",
		"lib.Orphan.Close is reached from no main package",
		"lib.TestOnly is reached from no main package",
		"allow-list entry fixture/lib.Gone names no unreached declaration",
		"allow-list entry fixture/lib.register names no unreached declaration",
	}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
