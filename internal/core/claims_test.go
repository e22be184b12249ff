package core

import (
	"bufio"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// paperScaleCSV is the committed scale-1 output of every paper experiment
// (micbench -q -exp table1,fig1a,…,fig4d -scale 1 -csv); CI regenerates it
// and compares the bytes.
const paperScaleCSV = "../../results/paper_scale.csv"

// csvFigure is one figure's block of paperScaleCSV: its column names
// (threads first) and one row of numbers per thread count.
type csvFigure struct {
	cols []string
	rows [][]float64
}

// readPaperScale splits paperScaleCSV into its figures by their "# id: title"
// lines. Table I's block is skipped: its first column is a name.
func readPaperScale(t *testing.T) map[string]*csvFigure {
	t.Helper()
	f, err := os.Open(paperScaleCSV)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	figs := map[string]*csvFigure{}
	var cur *csvFigure
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# "):
			id, _, _ := strings.Cut(strings.TrimPrefix(line, "# "), ":")
			cur = nil
			if id != "table1" {
				cur = &csvFigure{}
				figs[id] = cur
			}
		case cur == nil || line == "":
		case cur.cols == nil:
			cur.cols = strings.Split(line, ",")
		default:
			var row []float64
			for _, cell := range strings.Split(line, ",") {
				v, err := strconv.ParseFloat(cell, 64)
				if err != nil {
					t.Fatalf("%s: %q: %v", paperScaleCSV, line, err)
				}
				row = append(row, v)
			}
			cur.rows = append(cur.rows, row)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return figs
}

// series returns the named column of figure id, indexed like its rows.
func series(t *testing.T, figs map[string]*csvFigure, id, col string) []float64 {
	t.Helper()
	f := figs[id]
	if f == nil {
		t.Fatalf("%s holds no figure %s", paperScaleCSV, id)
	}
	j := slices.Index(f.cols, col)
	if j < 0 {
		t.Fatalf("%s: %s has no column %q (columns %v)", paperScaleCSV, id, col, f.cols)
	}
	out := make([]float64, len(f.rows))
	for i, row := range f.rows {
		out[i] = row[j]
	}
	return out
}

// speedupAt is column col of figure id at the given thread count.
func speedupAt(t *testing.T, figs map[string]*csvFigure, id, col string, threads int) float64 {
	t.Helper()
	s := series(t, figs, id, col)
	for i, th := range series(t, figs, id, "threads") {
		if th == float64(threads) {
			return s[i]
		}
	}
	t.Fatalf("%s: %s has no row for %d threads", paperScaleCSV, id, threads)
	return 0
}

// TestPaperClaimsAtScale1 holds findings of the paper, in EXPERIMENTS.md's
// words, to the committed scale-1 results: a simulator change that flips
// one fails here under the finding's name.
func TestPaperClaimsAtScale1(t *testing.T) {
	figs := readPaperScale(t)
	for _, claim := range []struct {
		name  string // the figure, then the finding
		holds func(t *testing.T)
	}{
		{"1a dynamic above static at 61 threads", func(t *testing.T) {
			dyn := speedupAt(t, figs, "fig1a", "OpenMP-dynamic", 61)
			static := speedupAt(t, figs, "fig1a", "OpenMP-static", 61)
			if dyn <= static {
				t.Errorf("OpenMP-dynamic %v, OpenMP-static %v", dyn, static)
			}
		}},
		{"1b Cilk below OpenMP-dynamic at every thread count ≥ 31", func(t *testing.T) {
			threads := series(t, figs, "fig1b", "threads")
			for _, col := range []string{"CilkPlus", "CilkPlus-holder"} {
				for i, cilk := range series(t, figs, "fig1b", col) {
					if th := int(threads[i]); th >= 31 {
						if dyn := speedupAt(t, figs, "fig1a", "OpenMP-dynamic", th); cilk >= dyn {
							t.Errorf("at %d threads %s reads %v, OpenMP-dynamic %v", th, col, cilk, dyn)
						}
					}
				}
			}
		}},
		{"1b worker-id and holder variants within 1 %", func(t *testing.T) {
			holder := series(t, figs, "fig1b", "CilkPlus-holder")
			for i, id := range series(t, figs, "fig1b", "CilkPlus") {
				if math.Abs(id-holder[i]) > 0.01*max(id, holder[i]) {
					t.Errorf("row %d: CilkPlus %v, CilkPlus-holder %v", i, id, holder[i])
				}
			}
		}},
		{"1c simple above auto and affinity at every thread count ≥ 31", func(t *testing.T) {
			threads := series(t, figs, "fig1c", "threads")
			for _, col := range []string{"TBB-auto", "TBB-affinity"} {
				other := series(t, figs, "fig1c", col)
				for i, simple := range series(t, figs, "fig1c", "TBB-simple") {
					if threads[i] >= 31 && simple <= other[i] {
						t.Errorf("at %v threads TBB-simple reads %v, %s %v", threads[i], simple, col, other[i])
					}
				}
			}
		}},
		{"2 OpenMP superlinear at 121 threads on shuffled graphs", func(t *testing.T) {
			if s := speedupAt(t, figs, "fig2", "OpenMP", 121); s <= 121 {
				t.Errorf("OpenMP speedup %v", s)
			}
		}},
		{"2 Cilk < TBB < OpenMP at 121 threads", func(t *testing.T) {
			cilk := speedupAt(t, figs, "fig2", "CilkPlus", 121)
			tbb := speedupAt(t, figs, "fig2", "TBB", 121)
			omp := speedupAt(t, figs, "fig2", "OpenMP", 121)
			if cilk >= tbb || tbb >= omp {
				t.Errorf("CilkPlus %v, TBB %v, OpenMP %v", cilk, tbb, omp)
			}
		}},
		{"3 Cilk speedup rises with iter", func(t *testing.T) {
			prev := 0.0
			for _, col := range []string{"1 iteration(s)", "3 iteration(s)", "5 iteration(s)", "10 iteration(s)"} {
				s := speedupAt(t, figs, "fig3b", col, 121)
				if s <= prev {
					t.Errorf("at 121 threads, %s reads %v, no more than %v with fewer iterations", col, s, prev)
				}
				prev = s
			}
		}},
		// The CSV plots two graphs on their own, pwtk and inline_1, and the
		// geometric mean over the suite: pwtk's peak must be under both
		// others. A graph of the suite whose own peak fell under pwtk's while
		// the mean stayed above would pass.
		{"4a pwtk has the suite's lowest BFS peak", func(t *testing.T) {
			pwtk := slices.Max(series(t, figs, "fig4a", "OpenMP-Block-relaxed"))
			inline := slices.Max(series(t, figs, "fig4b", "OpenMP-Block-relaxed"))
			suite := slices.Max(series(t, figs, "fig4c", "OpenMP-Block-relaxed"))
			if pwtk >= inline || pwtk >= suite {
				t.Errorf("pwtk peaks at %v, inline_1 at %v, the suite's geometric mean at %v", pwtk, inline, suite)
			}
		}},
		{"4a/4b relaxed queue above locked at every thread count", func(t *testing.T) {
			for _, id := range []string{"fig4a", "fig4b"} {
				locked := series(t, figs, id, "OpenMP-Block")
				for i, relaxed := range series(t, figs, id, "OpenMP-Block-relaxed") {
					if relaxed <= locked[i] {
						t.Errorf("%s row %d: OpenMP-Block-relaxed %v, OpenMP-Block %v", id, i, relaxed, locked[i])
					}
				}
			}
		}},
		{"4c bag at least 3× below the block queue at 61 and 121 threads", func(t *testing.T) {
			for _, th := range []int{61, 121} {
				block := speedupAt(t, figs, "fig4c", "OpenMP-Block-relaxed", th)
				bag := speedupAt(t, figs, "fig4c", "CilkPlus-Bag-relaxed", th)
				if block < 3*bag {
					t.Errorf("at %d threads the block queue reads %v, the bag %v (%.2f×)", th, block, bag, block/bag)
				}
			}
		}},
		{"4d block-relaxed > TLS > bag at 22 host threads", func(t *testing.T) {
			block := speedupAt(t, figs, "fig4d", "OpenMP-Block-relaxed", 22)
			tls := speedupAt(t, figs, "fig4d", "OpenMP-TLS", 22)
			bag := speedupAt(t, figs, "fig4d", "CilkPlus-Bag-relaxed", 22)
			if block <= tls || tls <= bag {
				t.Errorf("OpenMP-Block-relaxed %v, OpenMP-TLS %v, CilkPlus-Bag-relaxed %v", block, tls, bag)
			}
		}},
	} {
		t.Run(claim.name, claim.holds)
	}
}
