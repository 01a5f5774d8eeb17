package hpxgo

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakeFuzzListsEveryTarget keeps `make fuzz` what its comment says it is,
// a run of every fuzz target in the tree: each `func Fuzz…` under internal/
// must be selected by exactly one line of the Makefile's fuzz recipe, and
// each line's -fuzz pattern must select exactly one target of its package
// (go test refuses a pattern that matches several).
func TestMakeFuzzListsEveryTarget(t *testing.T) {
	targets := map[string][]string{} // package dir -> fuzz targets
	decl := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
			dir := filepath.ToSlash(filepath.Dir(path))
			targets[dir] = append(targets[dir], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(mk), "\nfuzz:\n")
	if !ok {
		t.Fatal("Makefile has no fuzz target")
	}
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	line := regexp.MustCompile(`test \./(\S+?)/? -fuzz '?([^' ]+)'?`)
	covered := map[string]int{}
	for _, l := range strings.Split(recipe, "\n") {
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("fuzz recipe line %q runs no fuzz target", l)
			continue
		}
		pattern := regexp.MustCompile(strings.ReplaceAll(m[2], "$$", "$"))
		var hit []string
		for _, name := range targets[m[1]] {
			if pattern.MatchString(name) {
				hit = append(hit, name)
			}
		}
		if len(hit) != 1 {
			t.Errorf("fuzz recipe line %q selects %v in %s, want exactly one target", l, hit, m[1])
			continue
		}
		covered[m[1]+"."+hit[0]]++
	}
	n := 0
	for dir, names := range targets {
		for _, name := range names {
			n++
			if c := covered[dir+"."+name]; c != 1 {
				t.Errorf("%s.%s is run by %d lines of `make fuzz`, want 1", dir, name, c)
			}
		}
	}
	if n == 0 {
		t.Fatal("found no fuzz target under internal/")
	}
	t.Logf("make fuzz runs %d of %d fuzz targets", len(covered), n)
}
