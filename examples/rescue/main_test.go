package main

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestStdoutMatchesGolden runs main with stdout captured to a file and
// diffs it against testdata/stdout.golden byte for byte. The example is
// deterministic, so a drift is a change in what the public API computes.
func TestStdoutMatchesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digits were recorded on amd64; %s may fuse multiply-adds and move a last digit", runtime.GOARCH)
	}
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer func(stdout *os.File) { os.Stdout = stdout }(os.Stdout)
	os.Stdout = f
	main()
	got, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if string(got) != string(want) {
		t.Errorf("stdout drifted from testdata/stdout.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
