// Package examples pins what each example program prints: the test runs
// every example with `go run` and compares its stdout with
// testdata/<name>.golden. The examples are seeded simulations, so a change
// to any engine they drive that moves a delivered count, a latency or a
// plan fails here. `go test ./examples -update` rewrites the goldens; a
// change that moves one says why in CHANGES.md.
package examples

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/<name>.golden from the examples' output")

// names lists the example programs, one directory each.
var names = []string{
	"discovery-archive",
	"mu2e-layer2",
	"partitioned-instrument",
	"quickstart",
	"supernova-alert",
	"vera-rubin-nightly",
}

func TestExampleGoldens(t *testing.T) {
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command("go", "run", "./examples/"+name)
			cmd.Dir = ".."
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("go run ./examples/%s: %v\n%s", name, err, stderr.Bytes())
			}
			path := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (go test ./examples -update writes it)", err)
			}
			if !bytes.Equal(stdout.Bytes(), want) {
				t.Errorf("output differs from %s:\n%s", path, stdout.Bytes())
			}
		})
	}
}

// TestGoldensCoverEveryExample fails when an example directory has no
// entry in names, so a new example cannot go unpinned.
func TestGoldensCoverEveryExample(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, n := range names {
		listed[n] = true
	}
	for _, e := range entries {
		if e.IsDir() && e.Name() != "testdata" && !listed[e.Name()] {
			t.Errorf("example %s has no golden: add it to names", e.Name())
		}
	}
}
