package main

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestCount counts a two-package module whose every column is known.
func TestCount(t *testing.T) {
	root := t.TempDir()
	write := func(name, src string) {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example.com/m\n\ngo 1.22\n")
	write("lib.go", `package m

import "sync"

type Config struct {
	Size, Depth int
	hidden      int
}

type Option func(*Config)

func WithSize(n int) Option { return func(c *Config) { c.Size = n } }

type server struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	next *sync.Mutex
}

func (s *server) Start() { go func() {}(); go s.Start() }

const Max, min = 8, 1

var (
	lock sync.Mutex
	Name = "m"
)
`)
	write("lib_test.go", "package m\n\nfunc TestX() { go func() {}() }\n")
	write("cmd/tool/main.go", `package main

import fl "flag"

func main() {
	fs := fl.NewFlagSet("tool", fl.ExitOnError)
	_ = fs.Int("n", 1, "")
	_ = fl.Bool("v", false, "")
	var s string
	fs.StringVar(&s, "s", "", "")
}
`)
	write("testdata/skip.go", "package skip\n")

	pkgs, err := count(root, "example.com/m")
	if err != nil {
		t.Fatal(err)
	}
	want := []pkgRow{
		{Path: "example.com/m", Kind: "library", Lines: 27, Exported: 7, Goroutines: 2, Locks: 3,
			Knobs: knobCounts{Options: 1, ConfigFields: 2}},
		{Path: "example.com/m/cmd/tool", Kind: "command", Lines: 11, Knobs: knobCounts{Flags: 3}},
	}
	if !reflect.DeepEqual(pkgs, want) {
		t.Fatalf("count:\n got %+v\nwant %+v", pkgs, want)
	}
	if _, err := render("example.com/m", pkgs); err != nil {
		t.Fatal(err)
	}
}
