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
	"slices"
	"strings"
	"testing"

	"mmprofile/internal/server"
)

var (
	docSpanRE    = regexp.MustCompile("`([^`]+)`")
	docGoFile    = regexp.MustCompile(`^[\w./-]+\.go$`)
	docTestFunc  = regexp.MustCompile(`^(Test|Benchmark|Fuzz)\w*\*?$`)
	docInstrName = regexp.MustCompile(`^mm_\w+$`)
	docFlag      = regexp.MustCompile(`^-([a-z][\w-]*)([ =].*)?$`)
	docPkgIdent  = regexp.MustCompile(`^([a-z]\w*)\.([A-Z]\w*)(\(.*\))?$`)
	docTypeMem   = regexp.MustCompile(`^([A-Z]\w*)\.(\w+)(\(.*\))?$`)
	goTestFlag   = regexp.MustCompile(`-(run|fuzz|bench)(?:=|\s+)('[^']*'|"[^"]*"|\S+)`)
	goTestName   = regexp.MustCompile(`^(Test|Benchmark|Fuzz)\w+\$?$`)
	goTestWord   = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z]\w*`)
)

// code is what a document may name: the tree's Go files; its test,
// benchmark and fuzz functions; and, for this module's packages (perf/ is
// a module of its own), each package's exported top-level names and each
// type's methods and fields, embedded types' included.
type code struct {
	files, funcs map[string]bool
	pkgs         map[string]map[string]bool // package name → exported top-level names
	types        map[string]map[string]bool // type name → its methods and fields
	embeds       map[string][]string        // type name → the types it embeds
}

func readCode(t *testing.T) *code {
	t.Helper()
	c := &code{files: map[string]bool{}, funcs: map[string]bool{}, pkgs: map[string]map[string]bool{},
		types: map[string]map[string]bool{}, embeds: map[string][]string{}}
	var modules []string // nested module roots
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && (strings.HasPrefix(d.Name(), ".") && p != "." || p == filepath.Join("perf", "out")):
			return filepath.SkipDir
		case d.IsDir():
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil && p != "." {
				modules = append(modules, p+string(filepath.Separator))
			}
			return nil
		case !strings.HasSuffix(p, ".go"):
			return nil
		}
		c.files[filepath.ToSlash(p)], c.files[d.Name()] = true, true
		test := strings.HasSuffix(p, "_test.go")
		if !test && slices.ContainsFunc(modules, func(m string) bool { return strings.HasPrefix(p, m) }) {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if test {
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
					c.funcs[fn.Name.Name] = true
				}
			}
			return nil
		}
		if f.Name.Name != "main" {
			c.declare(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// declare records f's exported top-level names under its package and its
// types' methods and fields.
func (c *code) declare(f *ast.File) {
	pkg := c.pkgs[f.Name.Name]
	if pkg == nil {
		pkg = map[string]bool{}
		c.pkgs[f.Name.Name] = pkg
	}
	export := func(id *ast.Ident) {
		if id.IsExported() {
			pkg[id.Name] = true
		}
	}
	member := func(typ string, id *ast.Ident) {
		if c.types[typ] == nil {
			c.types[typ] = map[string]bool{}
		}
		c.types[typ][id.Name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				export(d.Name)
			} else {
				member(typeName(d.Recv.List[0].Type), d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch sp := spec.(type) {
				case *ast.ValueSpec:
					for _, id := range sp.Names {
						export(id)
					}
				case *ast.TypeSpec:
					export(sp.Name)
					if c.types[sp.Name.Name] == nil {
						c.types[sp.Name.Name] = map[string]bool{}
					}
					var fields *ast.FieldList
					switch ty := sp.Type.(type) {
					case *ast.StructType:
						fields = ty.Fields
					case *ast.InterfaceType:
						fields = ty.Methods
					}
					for _, fd := range fieldList(fields) {
						if len(fd.Names) == 0 {
							c.embeds[sp.Name.Name] = append(c.embeds[sp.Name.Name], typeName(fd.Type))
						}
						for _, id := range fd.Names {
							member(sp.Name.Name, id)
						}
					}
				}
			}
		}
	}
}

func fieldList(l *ast.FieldList) []*ast.Field {
	if l == nil {
		return nil
	}
	return l.List
}

// typeName is the name of a receiver or embedded type: T, *T, T[K] or
// pkg.T all give T.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// hasMember reports whether typ, or a type it embeds, has a method or
// field called name.
func (c *code) hasMember(typ, name string) bool {
	if c.types[typ][name] {
		return true
	}
	for _, e := range c.embeds[typ] {
		if e != typ && c.hasMember(e, name) {
			return true
		}
	}
	return false
}

// hasFunc reports whether a test, benchmark or fuzz function is called
// name or, with prefix, starts with it.
func (c *code) hasFunc(name string, prefix bool) bool {
	if !prefix {
		return c.funcs[name]
	}
	for f := range c.funcs {
		if strings.HasPrefix(f, name) {
			return true
		}
	}
	return false
}

// docSpan is one backticked span of a document and the line it starts on.
type docSpan struct {
	text string
	line int
}

// docSpans returns the backticked spans of the document at path. Fenced
// code blocks are blanked first, keeping their lines, so a fence's
// backticks do not pair with an inline span's.
func docSpans(t *testing.T, path string) []docSpan {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	for i, fenced := 0, false; i < len(lines); i++ {
		fence := strings.HasPrefix(strings.TrimSpace(lines[i]), "```")
		if fence || fenced {
			lines[i] = ""
		}
		fenced = fenced != fence
	}
	text := strings.Join(lines, "\n")
	var spans []docSpan
	for _, m := range docSpanRE.FindAllStringSubmatchIndex(text, -1) {
		spans = append(spans, docSpan{strings.TrimSpace(text[m[2]:m[3]]), strings.Count(text[:m[0]], "\n") + 1})
	}
	return spans
}

// TestDocsNameRealCode keeps DESIGN.md and README.md from naming code that
// is gone. Six kinds of backticked name are checked: a Go file
// (`journal.go`, `internal/store/journal.go`) must exist in the tree; a
// test, benchmark or fuzz target must be a declared function, a trailing *
// matching as a prefix (`TestCrashMatrix*`); a full mm_* name must be an
// instrument of a server with a state directory and tracing on, a
// histogram's _bucket, _sum and _count series included; a span that
// starts with a flag (`-state DIR`) must name one server.Config.Register
// defines, so another tool's flag is named in its command
// (`mmcorpus -out dir`); `pkg.Ident` (`store.Open`), where pkg is a
// package of this module, must be an exported top-level name of it; and
// `Type.Member` (`Hydrator.RestoreUser`), where Type is an exported type
// of this module, must be one of its methods or fields. Names that end in
// _ or hold a / (a prefix, a path) are not instruments and are skipped, and
// so are qualifiers that are neither (`conn.Close`, `wg.Done`).
func TestDocsNameRealCode(t *testing.T) {
	c := readCode(t)
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
			return c.files[strings.TrimPrefix(name, "./")]
		case docTestFunc.MatchString(name):
			prefix, ok := strings.CutSuffix(name, "*")
			return c.hasFunc(prefix, ok)
		case docInstrName.MatchString(name) && !strings.HasSuffix(name, "_"):
			for _, suffix := range []string{"", "_bucket", "_sum", "_count"} {
				if _, ok := instruments[strings.TrimSuffix(name, suffix)]; ok && strings.HasSuffix(name, suffix) {
					return true
				}
			}
			return false
		case docFlag.MatchString(name):
			return flags.Lookup(docFlag.FindStringSubmatch(name)[1]) != nil
		case docPkgIdent.MatchString(name):
			m := docPkgIdent.FindStringSubmatch(name)
			pkg, ok := c.pkgs[m[1]]
			return !ok || pkg[m[2]]
		case docTypeMem.MatchString(name):
			m := docTypeMem.FindStringSubmatch(name)
			_, ok := c.types[m[1]]
			return !ok || c.hasMember(m[1], m[2])
		}
		return true // not a kind of name this test checks
	}
	for _, doc := range []string{"DESIGN.md", "README.md"} {
		for _, sp := range docSpans(t, doc) {
			if !real(sp.text) {
				t.Errorf("%s:%d names `%s`, which is not in the code", doc, sp.line, sp.text)
			}
		}
	}
}

// goTestNames returns the names text's go test -run, -fuzz and -bench
// patterns ask for, one per alternative, with whether each is a prefix:
// go test matches unanchored, so `TestSession` asks for some test that
// starts with it, and a trailing $ asks for that one name. A -bench
// alternative names Benchmark<alternative>. Alternatives that are no
// such name (`^$`) are skipped.
func goTestNames(text string) (names []string, prefix []bool) {
	for _, m := range goTestFlag.FindAllStringSubmatch(text, -1) {
		for _, alt := range strings.Split(strings.Trim(m[2], `'"`), "|") {
			alt, _, _ = strings.Cut(strings.TrimPrefix(alt, "^"), "/") // the top-level name
			if m[1] == "bench" && !strings.HasPrefix(alt, "Benchmark") {
				alt = "Benchmark" + alt
			}
			if goTestName.MatchString(alt) {
				name, exact := strings.CutSuffix(alt, "$")
				names, prefix = append(names, name), append(prefix, !exact)
			}
		}
	}
	return names, prefix
}

// TestTestNamesExist: a go test -run or -bench pattern that names a renamed
// or deleted test matches nothing and passes. Every name in a -run, -fuzz
// or -bench pattern of CI's workflow, and every test name backticked in
// the verify skill, must match a declared function.
func TestTestNamesExist(t *testing.T) {
	c := readCode(t)
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	names, prefix := goTestNames(string(ci))
	if len(names) == 0 {
		t.Fatal("ci.yml names no test: the pattern reader is broken")
	}
	for i, name := range names {
		if !c.hasFunc(name, prefix[i]) {
			t.Errorf("ci.yml asks go test for %s, which no test declares", name)
		}
	}
	skill := filepath.Join(".claude", "skills", "verify", "SKILL.md")
	for _, sp := range docSpans(t, skill) {
		names, prefix := goTestNames(sp.text)
		for _, w := range goTestWord.FindAllString(sp.text, -1) {
			names, prefix = append(names, w), append(prefix, true)
		}
		for i, name := range names {
			if !c.hasFunc(name, prefix[i]) {
				t.Errorf("%s:%d names %s, which no test declares", skill, sp.line, name)
			}
		}
	}
}
