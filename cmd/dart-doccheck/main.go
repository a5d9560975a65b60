// Command dart-doccheck is the CI documentation gate: it verifies that the
// repo's markdown stays consistent with itself and with the wire protocol.
//
//	dart-doccheck -root .
//
// Three kinds of checks run:
//
//   - Links: every relative markdown link in docs/*.md and in every
//     README.md must resolve to a file or directory in the repo. External
//     links (http, https, mailto) and in-page anchors are skipped; a
//     "path#anchor" link is checked for the path part only.
//   - doc.go pointers: every repo-relative file name in the package doc
//     (a name ending .md, .json, .go or .txt, or a path under internal/,
//     cmd/, docs/, bench/ or examples/) must resolve from the repo root,
//     the same way a markdown link does; a "*" in the name must match at
//     least one file.
//   - Protocol coverage: every verb name in the serve.Verbs table must
//     appear backticked in docs/PROTOCOL.md. Adding a verb to the protocol without
//     documenting it fails CI; so does renaming one in the docs only.
//
// Exit status 0 when every check passes, 1 on broken links or undocumented
// verbs, 2 on usage or missing-data errors (e.g. docs/PROTOCOL.md absent —
// the gate fails closed rather than passing with nothing to check).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"dart/internal/serve"
)

// mdLink matches [text](target) and [text](target "title"). Images
// (![alt](target)) match too via the optional leading bang.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// docFiles collects the markdown files the gate covers: everything under
// docs/ plus every README.md in the tree (skipping .git).
func docFiles(root string) ([]string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		inDocs := strings.HasPrefix(rel, "docs"+string(filepath.Separator))
		if (inDocs && strings.HasSuffix(rel, ".md")) || d.Name() == "README.md" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	return files, err
}

// checkLinks returns one message per broken relative link in the file.
func checkLinks(root, path string) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var broken []string
	for _, m := range mdLink.FindAllStringSubmatch(string(raw), -1) {
		target := m[1]
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
			strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
			continue
		}
		target, _, _ = strings.Cut(target, "#")
		if target == "" {
			continue
		}
		resolved := filepath.Join(filepath.Dir(path), target)
		if strings.HasPrefix(target, "/") {
			// Repo-root-relative, the GitHub rendering convention.
			resolved = filepath.Join(root, target)
		}
		if _, err := os.Stat(resolved); err != nil {
			rel, _ := filepath.Rel(root, path)
			broken = append(broken, fmt.Sprintf("%s: link %q does not resolve", rel, m[1]))
		}
	}
	return broken, nil
}

// docRef matches a repo-relative file name in doc.go's prose, preceded by
// whitespace or "(" so that dotted Go identifiers (sim.Run) never match.
var docRef = regexp.MustCompile(`(?:^|[\s(])((?:[\w.*-]+/)*[\w*-]+\.(?:md|json|go|txt)|(?:internal|cmd|docs|bench|examples)(?:/[\w.*-]+)+)`)

// checkDocGo returns one message per file name in root/doc.go that resolves
// to nothing, and the number of names checked. A tree without doc.go has
// nothing to check.
func checkDocGo(root string) ([]string, int, error) {
	raw, err := os.ReadFile(filepath.Join(root, "doc.go"))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	refs := docRef.FindAllStringSubmatch(string(raw), -1)
	var broken []string
	for _, m := range refs {
		ref := strings.TrimRight(m[1], ".") // sentence-ending period
		if matches, err := filepath.Glob(filepath.Join(root, ref)); err != nil || len(matches) == 0 {
			broken = append(broken, fmt.Sprintf("doc.go: file %q does not resolve", ref))
		}
	}
	return broken, len(refs), nil
}

// checkVerbs verifies every row name of the serve.Verbs table appears
// backticked in the protocol spec.
func checkVerbs(spec string) []string {
	var missing []string
	for _, verb := range serve.Verbs {
		if !strings.Contains(spec, "`"+verb.Name+"`") {
			missing = append(missing, fmt.Sprintf("docs/PROTOCOL.md: wire verb `%s` is undocumented", verb.Name))
		}
	}
	return missing
}

// run executes the gate and returns the process exit code.
func run(root string, out io.Writer) int {
	files, err := docFiles(root)
	if err != nil {
		fmt.Fprintf(out, "doccheck: %v\n", err)
		return 2
	}
	if len(files) == 0 {
		fmt.Fprintf(out, "doccheck: no markdown files under %s\n", root)
		return 2
	}
	var problems []string
	links := 0
	for _, f := range files {
		broken, err := checkLinks(root, f)
		if err != nil {
			fmt.Fprintf(out, "doccheck: %v\n", err)
			return 2
		}
		raw, _ := os.ReadFile(f)
		links += len(mdLink.FindAllString(string(raw), -1))
		problems = append(problems, broken...)
	}
	broken, refs, err := checkDocGo(root)
	if err != nil {
		fmt.Fprintf(out, "doccheck: %v\n", err)
		return 2
	}
	problems = append(problems, broken...)
	spec, err := os.ReadFile(filepath.Join(root, "docs", "PROTOCOL.md"))
	if err != nil {
		// Fail closed: the verb-coverage check existing is the point.
		fmt.Fprintf(out, "doccheck: %v (the protocol spec is required)\n", err)
		return 2
	}
	problems = append(problems, checkVerbs(string(spec))...)
	for _, p := range problems {
		fmt.Fprintf(out, "FAIL %s\n", p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(out, "doccheck: %d problem(s)\n", len(problems))
		return 1
	}
	fmt.Fprintf(out, "doccheck: %d files, %d links, %d doc.go file names, %d wire verbs ok\n", len(files), links, refs, len(serve.Verbs))
	return 0
}

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()
	os.Exit(run(*root, os.Stdout))
}
