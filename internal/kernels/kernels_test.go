package kernels

import (
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"micgraph/internal/graph"
	"micgraph/internal/sched"
)

// TestTableShape pins the matrix the daemon accepts: 18 kind×variant
// pairs, unique, one default per kind.
func TestTableShape(t *testing.T) {
	want := map[string]struct {
		variants int
		def      string
	}{
		BFS:        {8, "omp-block-relaxed"},
		Coloring:   {4, "openmp"},
		Components: {3, "labelprop"},
		Irregular:  {3, "openmp"},
	}
	if len(Table()) != 18 {
		t.Errorf("table has %d entries, want 18", len(Table()))
	}
	seen := map[string]bool{}
	variants, defaults := map[string]int{}, map[string]int{}
	for _, e := range Table() {
		key := e.Kind + "/" + e.Variant
		if seen[key] {
			t.Errorf("%s listed twice", key)
		}
		seen[key] = true
		variants[e.Kind]++
		if e.Default {
			defaults[e.Kind]++
		}
		if got, ok := Lookup(e.Kind, e.Variant); !ok || got.Variant != e.Variant || got.Kind != e.Kind {
			t.Errorf("Lookup(%s) = %+v, %t", key, got, ok)
		}
	}
	for kind, w := range want {
		if variants[kind] != w.variants {
			t.Errorf("%s has %d variants, want %d", kind, variants[kind], w.variants)
		}
		if Default(kind) != w.def || defaults[kind] != 1 {
			t.Errorf("%s: default %q (%d marked), want exactly %q", kind, Default(kind), defaults[kind], w.def)
		}
	}
	if _, ok := Lookup(BFS, "bogus"); ok {
		t.Error("Lookup found a variant that is not in the table")
	}
	if Default("sweep") != "" {
		t.Error("Default names a variant for a kind that is not a kernel")
	}
}

// TestDefaults pins the parameters every caller starts from — the daemon's
// normalised job spec, micrun's flags and the facade — and the source rule.
func TestDefaults(t *testing.T) {
	want := Params{Chunk: 100, Iters: 5, Policy: sched.Dynamic, Partitioner: sched.SimplePartitioner}
	if got := Defaults(); got != want {
		t.Errorf("Defaults() = %+v, want %+v", got, want)
	}
	g := graph.MustFromEdges(5, []graph.Edge{{U: 0, V: 1}})
	for src, want := range map[int]int32{-1: 2, 0: 0, 4: 4, 5: 2, 1 << 30: 2} {
		if got := Source(g, src); got != want {
			t.Errorf("Source(%d) on 5 vertices = %d, want %d", src, got, want)
		}
	}
}

// TestVariantNamesSpelledOnlyHere walks the module's non-test Go files and
// fails if a variant name of the table is spelled as a string literal
// anywhere else: a second spelling is a second list, and second lists
// drift.
func TestVariantNamesSpelledOnlyHere(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not at %s: %v", root, err)
	}
	names := []string{`"omp-block`, `"tbb-block`, `"labelprop"`, `"pointerjump"`}
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			// bench/ is its own module; testdata holds analyzer fixtures.
			if rel == "bench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") && rel != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") ||
			filepath.Dir(rel) == filepath.Join("internal", "kernels") {
			return nil
		}
		files++
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, name := range names {
			if strings.Contains(string(src), name) {
				t.Errorf("%s spells %s…; take it from the kernels table", rel, name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 {
		t.Fatalf("walked only %d files; the check is not seeing the module", files)
	}
}

// TestRuntimeGoroutineBudget pins what a Runtime of w workers costs its host:
// its one engine starts w − 1 helpers for both disciplines, the caller of a
// region being worker 0, and Close takes every one of them back. It counts crew helpers by their
// stacks, so a goroutine of someone else's that starts or ends meanwhile does
// not move the count.
func TestRuntimeGoroutineBudget(t *testing.T) {
	for _, w := range []int{1, 2, 4} {
		before := crewHelpers()
		rt := NewRuntime(w)
		if got := crewHelpers() - before; got != w-1 {
			t.Errorf("NewRuntime(%d) started %d helpers, want %d", w, got, w-1)
		}
		rt.Close()
		deadline := time.Now().Add(5 * time.Second)
		for crewHelpers() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := crewHelpers() - before; got != 0 {
			t.Errorf("after NewRuntime(%d).Close: %d helpers left", w, got)
		}
	}
}

// crewHelpers counts the live goroutines sched's newCrew started, each a
// crew's helper. It reads the "created by" line of their stacks: a helper
// not yet scheduled has no (*crew).help frame to show.
func crewHelpers() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return strings.Count(string(buf[:n]), "created by micgraph/internal/sched.newCrew")
		}
		buf = make([]byte, 2*len(buf))
	}
}
