package gpufi

import (
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// citedDocs are the documents that describe the tree as it is now, each
// with the title prefixes of its "## " sections that are history and may
// cite what is gone. CHANGES.md is all history.
var citedDocs = []struct {
	path    string
	history []string
}{
	{"README.md", nil},
	{"DESIGN.md", nil},
	{".claude/skills/verify/SKILL.md", nil},
	{"EXPERIMENTS.md", []string{"Engine simplifications", "Engine speed-ups"}},
}

var (
	// pathLike is an inline code span that names a file or directory: one
	// token with a slash or a file extension, globs allowed.
	pathLike = regexp.MustCompile(`^[\w.*-]+(/[\w.*-]+)*/?$`)
	fileExt  = regexp.MustCompile(`\.(go|md|json|sh|yml|txt)$`)
	// camelCase marks a Go expression such as workers/inFlight; no
	// repository path has a lower-case letter followed by an upper-case one.
	camelCase = regexp.MustCompile(`[a-z][A-Z]`)
	// testName is a Go test, fuzz target or benchmark, optionally a
	// sub-test path or a trailing-* glob.
	testName = regexp.MustCompile(`^(Test|Fuzz|Benchmark)\w*\*?(/\S*)?$`)
	testDecl = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
	flagDecl = regexp.MustCompile(`\bfs\.\w+\("([\w-]+)"`)
	shellSep = regexp.MustCompile(`[|;&]`)
	cmdCall  = regexp.MustCompile(`\bgpufi\s+([a-z]+)\b(.*)`)
	cmdFlag  = regexp.MustCompile(`(?:^|\s)-([a-z][\w-]*)`)
)

// TestDocsCiteWhatExists checks the present-tense docs against the tree:
// every backticked repo path resolves, every backticked Test/Fuzz/
// Benchmark name is declared in a _test.go file, and every -flag a fenced
// sh block passes to a `gpufi <sub>` invocation is defined by that
// subcommand.
func TestDocsCiteWhatExists(t *testing.T) {
	var files, dirs []string
	tests := map[string]bool{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" || d.Name() == ".bench_build" {
				return filepath.SkipDir
			}
			dirs = append(dirs, filepath.ToSlash(p))
			return nil
		}
		files = append(files, filepath.ToSlash(p))
		if strings.HasSuffix(p, "_test.go") {
			src, err := os.ReadFile(p)
			if err != nil {
				return err
			}
			for _, m := range testDecl.FindAllStringSubmatch(string(src), -1) {
				tests[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	paths := append(append([]string(nil), files...), dirs...)

	for _, d := range citedDocs {
		doc := d.path
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		prose, blocks := splitFences(dropSections(string(src), d.history))
		for _, span := range codeSpans(prose) {
			switch {
			case testName.MatchString(span):
				if !testDeclared(tests, span) {
					t.Errorf("%s: `%s` is declared in no _test.go file", doc, span)
				}
			case isRepoPath(span):
				if !pathResolves(paths, span) {
					t.Errorf("%s: `%s` names no file or directory of the repository", doc, span)
				}
			}
		}
		for _, block := range blocks {
			for _, line := range strings.Split(block, "\n") {
				for _, call := range cmdCalls(line) {
					for _, flag := range cmdFlags(t, call.cmd) {
						delete(call.flags, flag)
					}
					for flag := range call.flags {
						t.Errorf("%s: gpufi %s defines no -%s (%q)", doc, call.cmd, flag, strings.TrimSpace(line))
					}
				}
			}
		}
	}
}

// dropSections removes the "## " sections of a markdown document whose
// titles start with one of prefixes, each up to the next "## " heading.
func dropSections(doc string, prefixes []string) string {
	var b strings.Builder
	drop := false
	for _, line := range strings.SplitAfter(doc, "\n") {
		if title, ok := strings.CutPrefix(line, "## "); ok {
			drop = slices.ContainsFunc(prefixes, func(p string) bool { return strings.HasPrefix(title, p) })
		}
		if !drop {
			b.WriteString(line)
		}
	}
	return b.String()
}

// splitFences separates a markdown document into its prose and the bodies
// of its fenced sh blocks.
func splitFences(doc string) (prose string, sh []string) {
	var b strings.Builder
	var block *strings.Builder
	inFence, isSh := false, false
	for _, line := range strings.Split(doc, "\n") {
		if fence, ok := strings.CutPrefix(strings.TrimSpace(line), "```"); ok {
			if inFence && isSh {
				sh = append(sh, block.String())
			}
			inFence, isSh = !inFence, fence == "sh"
			block = &strings.Builder{}
			continue
		}
		switch {
		case !inFence:
			b.WriteString(line + "\n")
		case isSh:
			block.WriteString(line + "\n")
		}
	}
	return b.String(), sh
}

// codeSpans returns the inline code spans of markdown prose; a span may
// wrap across lines.
func codeSpans(prose string) []string {
	parts := strings.Split(prose, "`")
	var spans []string
	for i := 1; i < len(parts); i += 2 {
		spans = append(spans, strings.Join(strings.Fields(parts[i]), " "))
	}
	return spans
}

func testDeclared(tests map[string]bool, span string) bool {
	name, _, _ := strings.Cut(span, "/")
	if prefix, glob := strings.CutSuffix(name, "*"); glob {
		for t := range tests {
			if strings.HasPrefix(t, prefix) {
				return true
			}
		}
		return false
	}
	return tests[name]
}

// isRepoPath reports whether a span names a repository path: one token
// with a slash or a file extension, not absolute, not a Go expression, not
// a placeholder such as job-NNNNNN.json.
func isRepoPath(span string) bool {
	return pathLike.MatchString(span) && (strings.Contains(span, "/") || fileExt.MatchString(span)) &&
		!camelCase.MatchString(span) && !strings.Contains(span, "NNN")
}

// pathResolves reports whether span matches a repository path: from the
// root, as a trailing part of a path, or — for a bare file name — by base
// name anywhere in the tree.
func pathResolves(paths []string, span string) bool {
	span = strings.TrimSuffix(strings.TrimPrefix(span, "./"), "/")
	for _, p := range paths {
		for q := p; ; {
			if ok, _ := path.Match(span, q); ok {
				return true
			}
			_, rest, found := strings.Cut(q, "/")
			if !found {
				break
			}
			q = rest
		}
	}
	return false
}

// invocation is one `gpufi <sub>` call on a shell line and the flags it
// passes.
type invocation struct {
	cmd   string
	flags map[string]bool
}

// cmdCalls finds the `gpufi <sub>` invocations on a shell line; a
// command's arguments end at the next pipe, separator or background
// operator.
func cmdCalls(line string) []invocation {
	var calls []invocation
	for _, seg := range shellSep.Split(line, -1) {
		m := cmdCall.FindStringSubmatch(seg)
		if m == nil {
			continue
		}
		c := invocation{cmd: m[1], flags: map[string]bool{}}
		for _, f := range cmdFlag.FindAllStringSubmatch(m[2], -1) {
			c.flags[f[1]] = true
		}
		calls = append(calls, c)
	}
	return calls
}

// cmdFlags returns the flags subcommand sub defines: those its entry
// point, run<Sub> in cmd/gpufi, declares on its own flag set (named fs).
func cmdFlags(t *testing.T, sub string) []string {
	t.Helper()
	srcs, err := filepath.Glob(filepath.Join("cmd", "gpufi", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	entry := regexp.MustCompile(`(?s)\nfunc (?i:run` + regexp.QuoteMeta(sub) + `)\(.*?\n}\n`)
	for _, f := range srcs {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if body := entry.Find(src); body != nil {
			var flags []string
			for _, m := range flagDecl.FindAllSubmatch(body, -1) {
				flags = append(flags, string(m[1]))
			}
			return flags
		}
	}
	t.Errorf("gpufi %s: no such subcommand in cmd/gpufi", sub)
	return nil
}
