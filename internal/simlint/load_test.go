package simlint_test

import (
	"os"
	"path/filepath"
	"testing"

	"splapi/internal/simlint"
)

// TestExternalTestSeesExportHooks loads a package whose external test
// package uses a hook from export_test.go, both directly and through a
// type of a second package that imports the first. The go tool compiles
// such a test, so the loader must type-check it too.
func TestExternalTestSeesExportHooks(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":           "module m\n\ngo 1.22\n",
		"a/a.go":           "package a\n\ntype T struct{ n int }\n\nfunc New() *T { return &T{n: 1} }\n",
		"a/export_test.go": "package a\n\nfunc (t *T) N() int { return t.n }\n",
		"a/a_test.go":      "package a\n\nvar _ = New().N()\n",
		"a/ext_test.go":    "package a_test\n\nimport (\n\t\"m/a\"\n\t\"m/b\"\n)\n\nvar _ = a.New().N() + b.Make().N()\n",
		"b/b.go":           "package b\n\nimport \"m/a\"\n\nfunc Make() *a.T { return a.New() }\n",
		"c/c.go":           "package c\n\nimport \"m/b\"\n\nvar _ = b.Make()\n",
		"c/c_ext_test.go":  "package c_test\n\nimport _ \"m/c\"\n",
	}
	for name, src := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ld, err := simlint.NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	// c first, so that b and a sit in the dependency cache without the hook.
	for _, dir := range []string{"c", "a", "b"} {
		units, err := ld.LoadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		if len(units) == 0 {
			t.Fatalf("loading %s: no units", dir)
		}
	}
}
