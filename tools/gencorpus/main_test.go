package main

import (
	"bytes"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// fuzzerFound matches the names `go test -fuzz` gives the failing inputs it
// records, the one kind of checked-in entry gencorpus does not write.
var fuzzerFound = regexp.MustCompile(`^[0-9a-f]{16}$`)

// TestCorpusUpToDate regenerates the corpus and requires every entry to
// match the checked-in one byte for byte, so a wire-format change that
// forgets `go run ./tools/gencorpus` fails here. A checked-in entry the
// tool no longer writes must be one the fuzzer found.
func TestCorpusUpToDate(t *testing.T) {
	got := t.TempDir()
	if err := run(got); err != nil {
		t.Fatal(err)
	}
	want := filepath.Join("..", "..", corpusRoot)
	files := readTree(t, want)
	for name, b := range readTree(t, got) {
		if w, ok := files[name]; !ok {
			t.Errorf("%s: generated, not checked in", name)
		} else if !bytes.Equal(b, w) {
			t.Errorf("%s: checked-in entry differs from the generated one", name)
		}
		delete(files, name)
	}
	for name := range files {
		if !fuzzerFound.MatchString(filepath.Base(name)) {
			t.Errorf("%s: checked in, but gencorpus no longer writes it", name)
		}
	}
}

// readTree returns every file under root by its slash path relative to root.
func readTree(t *testing.T, root string) map[string][]byte {
	t.Helper()
	files := map[string][]byte{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		files[filepath.ToSlash(rel)] = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatalf("no corpus files under %s", root)
	}
	return files
}
