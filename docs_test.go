package mmprofile_test

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"mmprofile/internal/server"
)

var (
	docSpan      = regexp.MustCompile("`([^`]+)`")
	docGoFile    = regexp.MustCompile(`^[\w./-]+\.go$`)
	docTestFunc  = regexp.MustCompile(`^(Test|Benchmark|Fuzz)\w*\*?$`)
	docInstrName = regexp.MustCompile(`^mm_\w+$`)
	docFlag      = regexp.MustCompile(`^-([a-z][\w-]*)([ =].*)?$`)
)

// TestDocsNameRealCode keeps DESIGN.md and README.md from naming code that
// is gone. Four kinds of backticked name are checked: a Go file
// (`journal.go`, `internal/store/journal.go`) must exist in the tree; a
// test, benchmark or fuzz target must be a declared function, a trailing *
// matching as a prefix (`TestCrashMatrix*`); a full mm_* name must be an
// instrument of a server with a state directory and tracing on, a
// histogram's _bucket, _sum and _count series included; and a span that
// starts with a flag (`-state DIR`) must name one server.Config.Register
// defines, so another tool's flag is named in its command
// (`mmcorpus -out dir`). Names that end in _ or hold a / (a prefix, a
// path) are not instruments and are skipped.
func TestDocsNameRealCode(t *testing.T) {
	files, funcs := map[string]bool{}, map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != "." || p == filepath.Join("perf", "out")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(p, ".go"):
			return nil
		}
		files[filepath.ToSlash(p)], files[d.Name()] = true, true
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				funcs[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{StateDir: t.TempDir(), TraceSample: 1}, server.Seams{Log: io.Discard})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	instruments := srv.Registry().Snapshot()
	flags := flag.NewFlagSet("mmserver", flag.ContinueOnError)
	new(server.Config).Register(flags)

	real := func(name string) bool {
		switch {
		case docGoFile.MatchString(name):
			return files[strings.TrimPrefix(name, "./")]
		case docTestFunc.MatchString(name):
			prefix, ok := strings.CutSuffix(name, "*")
			if !ok {
				return funcs[name]
			}
			for f := range funcs {
				if strings.HasPrefix(f, prefix) {
					return true
				}
			}
			return false
		case docInstrName.MatchString(name) && !strings.HasSuffix(name, "_"):
			for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
				if _, ok := instruments[strings.TrimSuffix(name, suffix)]; ok && strings.HasSuffix(name, suffix) {
					return true
				}
			}
			return false
		case docFlag.MatchString(name):
			return flags.Lookup(docFlag.FindStringSubmatch(name)[1]) != nil
		}
		return true // not a kind of name this test checks
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		// Blank out fenced code blocks, keeping their lines, so a fence's
		// backticks do not pair with an inline span's.
		lines := strings.Split(string(data), "\n")
		for i, fenced := 0, false; i < len(lines); i++ {
			fence := strings.HasPrefix(strings.TrimSpace(lines[i]), "```")
			if fence || fenced {
				lines[i] = ""
			}
			fenced = fenced != fence
		}
		text := strings.Join(lines, "\n")
		for _, m := range docSpan.FindAllStringSubmatchIndex(text, -1) {
			name := strings.TrimSpace(text[m[2]:m[3]])
			if !real(name) {
				line := strings.Count(text[:m[0]], "\n") + 1
				t.Errorf("%s:%d names `%s`, which is not in the code", doc, line, name)
			}
		}
	}
}
