package main

// The default mode's path check: every repository path that DESIGN.md or
// README.md cites must exist, so a doc cannot go on pointing at a file that
// a later change moved or deleted.

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

// pathDocs are the docs whose cited paths the default run checks.
var pathDocs = []string{"DESIGN.md", "README.md"}

// citedPath matches a path under one of the repository's source roots. A
// dot continues the path only when a known file extension follows it, so
// neither a full stop nor a ".name" after a package path (a Go identifier
// in it, exported or not) is taken for part of the path.
var citedPath = regexp.MustCompile(`\b(?:internal|cmd|examples|bench)/[\w/-]*(?:\.(?:go|md|sh|json|txt|sha256|ya?ml|mod|sum)\b)?`)

// checkPaths returns one "doc:line: path does not exist" finding for every
// path a doc under root cites that root lacks.
func checkPaths(root string, docs []string) ([]string, error) {
	var findings []string
	for _, doc := range docs {
		data, err := os.ReadFile(filepath.Join(root, doc))
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, p := range citedPath.FindAllString(line, -1) {
				p = strings.TrimRight(p, "-")
				if _, err := os.Stat(filepath.Join(root, p)); err != nil {
					findings = append(findings, fmt.Sprintf("%s:%d: %s does not exist", doc, i+1, p))
				}
			}
		}
	}
	return findings, nil
}
