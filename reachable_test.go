package heimdall_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// products are the binaries whose links decide what is reachable.
var products = []string{"heimdalld", "heimdallctl", "experiments"}

// unlinkedGroup is the group column of docs/unlinked.txt: the heimdall
// facade the Examples call, a reference implementation tests compare
// against, a seam through which a test substitutes a fake, a paper feature
// waiting for the ROADMAP item that wires it into heimdalld, or a shim only
// the frozen benchmark/ links.
var unlinkedGroup = regexp.MustCompile(`^(facade|oracle|seam|benchmark|item [0-9]+)$`)

// TestReachable fails when a function or method declared in a non-test file
// outside benchmark/ is linked into no product binary (heimdalld,
// heimdallctl, experiments, built with inlining off) and docs/unlinked.txt
// does not list it; when a listed name has become linked, so the list only
// shrinks; and when a line of the benchmark group is not linked by the
// benchmark binary (the benchmark/ module, built the same way) or a name
// only that binary links sits in another group. Each line of the list is
// name, group and reason, separated by tabs.
func TestReachable(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("the go command is needed to build the binaries: %v", err)
	}
	dir := t.TempDir()
	build := func(args ...string) {
		t.Helper()
		cmd := exec.Command(goBin, args...)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
	}
	args := []string{"build", "-gcflags=all=-l", "-o", dir}
	for _, p := range products {
		args = append(args, "./cmd/"+p)
	}
	build(args...)
	build("-C", "benchmark", "build", "-gcflags=all=-l", "-o", filepath.Join(dir, "benchmark"), ".")

	linked := map[string]bool{}
	for _, p := range products {
		for name := range symbols(t, goBin, filepath.Join(dir, p), "heimdall/cmd/"+p) {
			linked[name] = true
		}
	}
	bench := symbols(t, goBin, filepath.Join(dir, "benchmark"), "heimdall/benchmark")

	unlinked := map[string]bool{}
	for _, name := range declared(t) {
		if !linked[name] {
			unlinked[name] = true
		}
	}

	listed := readUnlinked(t, "docs/unlinked.txt")
	var missing []string
	for name := range unlinked {
		if _, ok := listed[name]; !ok {
			group := "?"
			if bench[name] {
				group = "benchmark"
			}
			missing = append(missing, name+"\t"+group)
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("linked by no binary and not in docs/unlinked.txt: %s", m)
	}
	var names []string
	for name := range listed {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		group := listed[name]
		switch {
		case !unlinked[name]:
			t.Errorf("docs/unlinked.txt lists %s, which a product binary links or which no longer exists: delete its line", name)
		case group == "benchmark" && !bench[name]:
			t.Errorf("docs/unlinked.txt puts %s in the benchmark group, but the benchmark binary does not link it", name)
		case group != "benchmark" && bench[name]:
			t.Errorf("docs/unlinked.txt puts %s in group %q, but only the benchmark binary links it: its group is benchmark", name, group)
		}
	}
}

// symbols lists the function symbols of a binary built with inlining off,
// each with its bracketed type arguments stripped (a generic function or a
// method of a generic type is linked once per shape, and a shape's name can
// hold spaces) and with package main renamed to pkg, the import path of the
// binary's own main package.
func symbols(t *testing.T, goBin, bin, pkg string) map[string]bool {
	t.Helper()
	out, err := exec.Command(goBin, "tool", "nm", bin).Output()
	if err != nil {
		t.Fatalf("go tool nm %s: %v", bin, err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(string(out), "\n") {
		// "  addr T name": the name is the rest of the line.
		f := strings.SplitN(strings.TrimSpace(line), " ", 3)
		if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
			continue
		}
		name := stripBrackets(f[2])
		if rest, ok := strings.CutPrefix(name, "main."); ok {
			name = pkg + "." + rest
		}
		names[name] = true
	}
	return names
}

// stripBrackets drops every bracketed part of a symbol, nested ones
// included: pkg.(*T[go.shape.int]).M is pkg.(*T).M.
func stripBrackets(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declared lists, as the linker names them, the functions and methods
// declared in the module's non-test files outside benchmark/ (a module of
// its own), skipping init and blank functions.
func declared(t *testing.T) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || d.Name() == "testdata" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "heimdall"
		if dir := filepath.Dir(path); dir != "." {
			pkg += "/" + filepath.ToSlash(dir)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			names = append(names, pkg+"."+recvPrefix(fn)+fn.Name.Name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// recvPrefix is "(*T)." or "T." for a method, "" for a function.
func recvPrefix(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// readUnlinked reads the allowlist: name, group and a non-empty reason per
// line, tab-separated; blank lines and lines starting with # are comments.
func readUnlinked(t *testing.T, path string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, "\t")
		if len(f) != 3 || !unlinkedGroup.MatchString(f[1]) || strings.TrimSpace(f[2]) == "" {
			t.Errorf("%s:%d: want name<TAB>group<TAB>reason with group facade, oracle, seam, benchmark or item N: %q", path, i+1, line)
			continue
		}
		if _, dup := listed[f[0]]; dup {
			t.Errorf("%s:%d: %s listed twice", path, i+1, f[0])
		}
		listed[f[0]] = f[1]
	}
	return listed
}
