package pathmark_bench

import (
	"bufio"
	"bytes"
	"flag"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var reachGate = flag.Bool("reach", false, "check that every internal/ function is reached by a binary or on the keep list (CI hook)")

// reachKeepFile lists the internal/ functions no binary reaches, each
// with the reason it stays.
const reachKeepFile = "testdata/reach_keep.txt"

// TestReachability keeps "every function has a caller" true. It links
// every main package under cmd/ and examples/, and the perfbench module,
// with inlining off and the linker's dependency dump on; a function that
// appears in no dump is unreached. Every non-generic function under
// internal/ that is unreached must be listed in reachKeepFile with its
// reason, and every listed one must still be unreached. A new unreached
// function gets a caller, is deleted, or joins the list with its reason.
//
//	go test -run TestReachability -count=1 . -args -reach
func TestReachability(t *testing.T) {
	if !*reachGate {
		t.Skip("reachability check runs with -reach")
	}
	reached := map[string]bool{}
	out, err := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`,
		"./cmd/...", "./examples/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	builds := [][2]string{{"perfbench", "."}} // {dir, package}
	for _, pkg := range strings.Fields(string(out)) {
		builds = append(builds, [2]string{".", pkg})
	}
	bin := filepath.Join(t.TempDir(), "bin")
	for _, b := range builds {
		cmd := exec.Command("go", "build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", bin, b[1])
		cmd.Dir = b[0]
		var dump bytes.Buffer
		cmd.Stderr = &dump
		if err := cmd.Run(); err != nil {
			t.Fatalf("building %s in %s: %v\n%s", b[1], b[0], err, dump.Bytes())
		}
		sc := bufio.NewScanner(&dump)
		for sc.Scan() {
			from, to, _ := strings.Cut(sc.Text(), " -> ")
			reached[from], reached[to] = true, true
		}
	}

	unreached, lines := unreachedFuncs(t, reached)
	keep := readKeepList(t)
	for _, name := range unreached {
		if _, ok := keep[name]; !ok {
			t.Errorf("%s: no binary reaches it; give it a caller, delete it, or list it in %s with its reason", name, reachKeepFile)
		}
		delete(keep, name)
	}
	for _, name := range sortedNames(keep) {
		t.Errorf("%s is listed in %s but is reached or gone; take it off the list", name, reachKeepFile)
	}
	t.Logf("%d unreached functions, %d lines, over %d builds", len(unreached), lines, len(builds))
}

// unreachedFuncs lists, sorted, the non-generic functions declared in the
// non-test files under internal/ that the default build compiles and no
// dump reaches, named as in the keep list ("wm.(*Key).Save"), and counts
// their lines.
func unreachedFuncs(t *testing.T, reached map[string]bool) ([]string, int) {
	var names []string
	lines := 0
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" || fd.Type.TypeParams != nil {
				continue
			}
			name := pkg + "." + fd.Name.Name
			if fd.Recv != nil {
				recv, ok := recvName(fd.Recv.List[0].Type)
				if !ok {
					continue // a method of a generic type
				}
				name = pkg + "." + recv + "." + fd.Name.Name
			}
			if !reached["pathmark/internal/"+name] {
				names = append(names, name)
				lines += fset.Position(fd.End()).Line - fset.Position(fd.Pos()).Line + 1
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names, lines
}

// recvName renders a receiver type as the linker names it: "T" or "(*T)".
// It reports false for a generic receiver.
func recvName(e ast.Expr) (string, bool) {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.StarExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")", true
		}
	}
	return "", false
}

// readKeepList reads reachKeepFile: one "name reason" entry per line,
// blank lines and '#' comments skipped. Every entry must state a reason.
func readKeepList(t *testing.T) map[string]string {
	data, err := os.ReadFile(reachKeepFile)
	if err != nil {
		t.Fatal(err)
	}
	keep := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s:%d: %s has no reason", reachKeepFile, i+1, name)
		}
		if _, dup := keep[name]; dup {
			t.Errorf("%s:%d: %s is listed twice", reachKeepFile, i+1, name)
		}
		keep[name] = reason
	}
	return keep
}

func sortedNames(m map[string]string) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
