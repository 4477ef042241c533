package main

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFixture sweeps the module under testdata: a finding must land on
// exactly the lines marked "// want", once each, and nowhere else.
func TestFixture(t *testing.T) {
	const dir = "testdata"
	found, err := check(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, f := range found {
		rel, err := filepath.Rel(dir, f.pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("%s:%d", filepath.ToSlash(rel), f.pos.Line)]++
	}
	want := map[string]int{}
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if strings.HasSuffix(sc.Text(), "// want") {
				want[fmt.Sprintf("%s:%d", filepath.ToSlash(rel), line)]++
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 9 {
		t.Fatalf("fixture has %d want markers, expected 9", len(want))
	}
	for key, n := range want {
		if got[key] != n {
			t.Errorf("%s: %d finding(s), want %d", key, got[key], n)
		}
	}
	for key, n := range got {
		if want[key] == 0 {
			t.Errorf("%s: unexpected finding(s) (x%d)", key, n)
		}
	}
}

// TestModuleClean sweeps this repository: it must drop no error.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	found, err := check(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range found {
		t.Error(f)
	}
}
