package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dart/internal/serve"
)

// writeTree lays out a minimal repo: docs/ with a complete PROTOCOL.md,
// a nested README, and a target file for links to hit.
func writeTree(t *testing.T, protocol string) string {
	t.Helper()
	root := t.TempDir()
	spec := protocol
	if spec == "" {
		var b strings.Builder
		b.WriteString("# Protocol\n\n")
		for _, v := range serve.Verbs {
			b.WriteString("- `" + v.Name + "`\n")
		}
		spec = b.String()
	}
	files := []struct{ dir, name, content string }{
		{"docs", "PROTOCOL.md", spec + "\nSee [arch](ARCHITECTURE.md) and [serve](../internal/serve/README.md).\n"},
		{"docs", "ARCHITECTURE.md", "# Arch\n[spec](PROTOCOL.md) [ext](https://example.com) [anchor](#top)\n"},
		{"internal/serve", "README.md", "# serve\n[up](/docs/PROTOCOL.md)\n"},
	}
	for _, f := range files {
		if err := os.MkdirAll(filepath.Join(root, f.dir), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(root, f.dir, f.name), []byte(f.content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestDocCheckPasses(t *testing.T) {
	var out strings.Builder
	if code := run(writeTree(t, ""), &out); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestDocCheckFailsOnBrokenLink(t *testing.T) {
	root := writeTree(t, "")
	readme := filepath.Join(root, "internal/serve/README.md")
	if err := os.WriteFile(readme, []byte("[gone](../nope/MISSING.md)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := run(root, &out); code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "MISSING.md") {
		t.Fatalf("output:\n%s", out.String())
	}
}

func TestDocCheckFailsOnUndocumentedVerb(t *testing.T) {
	// A spec documenting every verb except the last one.
	var b strings.Builder
	for _, v := range serve.Verbs[:len(serve.Verbs)-1] {
		b.WriteString("`" + v.Name + "` ")
	}
	var out strings.Builder
	if code := run(writeTree(t, b.String()), &out); code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	last := serve.Verbs[len(serve.Verbs)-1].Name
	if !strings.Contains(out.String(), "`"+last+"`") {
		t.Fatalf("missing verb %q not reported:\n%s", last, out.String())
	}
}

func TestDocCheckFailsClosedWithoutSpec(t *testing.T) {
	root := writeTree(t, "")
	if err := os.Remove(filepath.Join(root, "docs/PROTOCOL.md")); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := run(root, &out); code != 2 {
		t.Fatalf("exit %d, want 2; output:\n%s", code, out.String())
	}
}

func TestDocCheckSkipsExternalAndAnchorLinks(t *testing.T) {
	// ARCHITECTURE.md in the fixture carries https and #anchor links; a pass
	// proves they are skipped rather than resolved as paths.
	var out strings.Builder
	if code := run(writeTree(t, ""), &out); code != 0 {
		t.Fatalf("external/anchor links not skipped:\n%s", out.String())
	}
}

// TestDocCheckResolvesDocGoFiles: file names in doc.go resolve from the repo
// root like markdown links — globs included — and one that names nothing
// fails the gate.
func TestDocCheckResolvesDocGoFiles(t *testing.T) {
	root := writeTree(t, "")
	doc := "// Package x: see docs/PROTOCOL.md (and docs/*.md), internal/serve,\n" +
		"// internal/serve/README.md and sim.Run in internal/sim.\npackage x\n"
	if err := os.WriteFile(filepath.Join(root, "doc.go"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if code := run(root, &out); code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), `doc.go: file "internal/sim" does not resolve`) {
		t.Fatalf("output:\n%s", out.String())
	}
	if err := os.MkdirAll(filepath.Join(root, "internal/sim"), 0o755); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run(root, &out); code != 0 {
		t.Fatalf("exit %d, output:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "5 doc.go file names") {
		t.Fatalf("output:\n%s", out.String())
	}
}

// TestRealRepoDocs runs the gate against the actual repository so `go test`
// catches doc rot even where CI's docs-lint step is not wired up.
func TestRealRepoDocs(t *testing.T) {
	var out strings.Builder
	if code := run("../..", &out); code != 0 {
		t.Fatalf("repo docs failed the gate:\n%s", out.String())
	}
}
