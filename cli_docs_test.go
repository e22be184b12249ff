package micgraph

import (
	"bufio"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCLIListsMatchCmd keeps the two lists of binaries in step with cmd/:
// README's Architecture block names every directory under cmd/ once, and
// DESIGN.md's module table has exactly one `cmd/<name>` row per directory.
func TestCLIListsMatchCmd(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, e := range entries {
		if e.IsDir() {
			want = append(want, e.Name())
		}
	}

	readme := docLines(t, "README.md")
	start := slices.Index(readme, "## Architecture")
	if start < 0 {
		t.Fatal("README.md has no Architecture section")
	}
	cmd := slices.Index(readme[start:], "cmd/")
	if cmd < 0 {
		t.Fatal("README.md's Architecture block has no cmd/ line")
	}
	// The block's entries are the lines indented by exactly two spaces up
	// to the next unindented line; deeper lines continue a description.
	entry := regexp.MustCompile(`^  ([a-z]\w*)\s`)
	var listed []string
	for _, line := range readme[start+cmd+1:] {
		if !strings.HasPrefix(line, " ") {
			break
		}
		if m := entry.FindStringSubmatch(line); m != nil {
			listed = append(listed, m[1])
		}
	}
	slices.Sort(listed)
	if !slices.Equal(listed, want) {
		t.Errorf("README.md's cmd/ block lists %v, cmd/ holds %v", listed, want)
	}

	row := regexp.MustCompile("^\\| `cmd/([^`]+)` \\|")
	var rows []string
	for _, line := range docLines(t, "DESIGN.md") {
		if m := row.FindStringSubmatch(line); m != nil {
			rows = append(rows, m[1])
		}
	}
	slices.Sort(rows)
	if !slices.Equal(rows, want) {
		t.Errorf("DESIGN.md's module table has cmd/ rows %v, cmd/ holds %v", rows, want)
	}
}

func docLines(t *testing.T, path string) []string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}
