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
	targets := testFuncs(t, "Fuzz")
	recipe := makeRecipe(t, "fuzz")
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

// TestMakeAllocGateNamesExist keeps `make alloc-gate` running the gates it
// names: every alternative of each -run pattern in its recipe must match a
// `func Test…` of that line's package. A renamed gate test otherwise drops
// out of the gate silently, since go test passes when -run matches nothing.
func TestMakeAllocGateNamesExist(t *testing.T) {
	tests := testFuncs(t, "Test")
	line := regexp.MustCompile(`test \./(\S+?)/? -run '?([^' ]+)'?`)
	n := 0
	for _, l := range strings.Split(makeRecipe(t, "alloc-gate"), "\n") {
		m := line.FindStringSubmatch(l)
		if m == nil {
			t.Errorf("alloc-gate recipe line %q runs no -run pattern", l)
			continue
		}
		for _, alt := range strings.Split(m[2], "|") {
			n++
			re := regexp.MustCompile(strings.ReplaceAll(alt, "$$", "$"))
			hit := false
			for _, name := range tests[m[1]] {
				hit = hit || re.MatchString(name)
			}
			if !hit {
				t.Errorf("alloc-gate runs %q in %s, which matches no test there", alt, m[1])
			}
		}
	}
	if n == 0 {
		t.Fatal("found no test name in the alloc-gate recipe")
	}
}

// testFuncs maps each package directory under internal/ to the names of its
// `func <prefix>…(` declarations in _test.go files.
func testFuncs(t *testing.T, prefix string) map[string][]string {
	t.Helper()
	funcs := map[string][]string{}
	decl := regexp.MustCompile(`(?m)^func (` + prefix + `\w*)\(`)
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
			funcs[dir] = append(funcs[dir], m[1])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return funcs
}

// makeRecipe returns the recipe lines of a Makefile target, up to the first
// blank line.
func makeRecipe(t *testing.T, target string) string {
	t.Helper()
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	_, recipe, ok := strings.Cut(string(mk), "\n"+target+":\n")
	if !ok {
		t.Fatalf("Makefile has no %s target", target)
	}
	recipe, _, _ = strings.Cut(recipe, "\n\n")
	return recipe
}
