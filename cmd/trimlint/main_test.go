package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// inModule writes a one-package module into a temp directory and makes it
// the working directory for the rest of the test: run finds the module
// from ".", as the command does.
func inModule(t *testing.T, pkg, src string) {
	t.Helper()
	root := t.TempDir()
	files := map[string]string{
		"go.mod":                   "module lintme\n\ngo 1.22\n",
		filepath.Join(pkg, "a.go"): src,
	}
	for name, body := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// trimlint runs the command in the working directory and returns its exit
// code, stdout and stderr.
func trimlint(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

const cleanSrc = "package clean\n\nfunc Add(a, b int) int { return a + b }\n"

func TestCleanModuleExitsZero(t *testing.T) {
	inModule(t, "clean", cleanSrc)
	if code, out, errOut := trimlint(); code != 0 || out != "" {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 0 and no findings", code, out, errOut)
	}
}

func TestFindingExitsOne(t *testing.T) {
	inModule(t, "dirty", "package dirty\n\nfunc Same(a, b float64) bool { return a == b }\n")
	code, out, errOut := trimlint("./...")
	if code != 1 {
		t.Fatalf("exit %d, stdout %q, stderr %q; want exit 1", code, out, errOut)
	}
	line := regexp.MustCompile(`(?m)^\S*dirty/a\.go:3:\d+: \[float-equality\] `)
	if !line.MatchString(out) {
		t.Errorf("stdout %q has no file:line:col: [float-equality] finding", out)
	}
	if !strings.Contains(errOut, "1 finding(s)") {
		t.Errorf("stderr %q does not count the finding", errOut)
	}
}

func TestUnmatchedPatternExitsTwo(t *testing.T) {
	inModule(t, "clean", cleanSrc)
	code, _, errOut := trimlint("./nosuch/...")
	if code != 2 || !strings.Contains(errOut, "no packages match ./nosuch/...") {
		t.Fatalf("exit %d, stderr %q; want exit 2 naming the pattern", code, errOut)
	}
}

func TestRemovedFlagExitsTwo(t *testing.T) {
	code, _, errOut := trimlint("-json", "./...")
	if code != 2 || !strings.Contains(errOut, "flag provided but not defined: -json") {
		t.Fatalf("exit %d, stderr %q; want exit 2 rejecting -json", code, errOut)
	}
}
