package coloring

import (
	"slices"
	"testing"
)

// checkMaskFit colors a vertex whose neighbors hold colors, through maskFit
// and through a fresh worker's arrayFit, and checks that the mask gives the
// array's first fit exactly when it can — no neighbor color of 64 or more,
// and a fit below 64 — and reports 64 otherwise.
func checkMaskFit(t *testing.T, colors []int32) {
	t.Helper()
	nbrs := make([]int32, len(colors))
	for i := range nbrs {
		nbrs[i] = int32(i)
	}
	top := int(slices.Max(append([]int32{0}, colors...)))
	wk := &colorWorker{fc: make(localFC, max(top, len(colors))+2)}
	for i := range wk.fc {
		wk.fc[i] = -1
	}
	want := wk.arrayFit(colors, nbrs, 7)
	if !wk.array {
		t.Errorf("%v: arrayFit left the worker on the mask", colors)
	}
	if top >= 64 || want >= 64 {
		want = 64
	}
	if got := maskFit(colors, nbrs); got != want {
		t.Errorf("%v: maskFit = %d, want %d", colors, got, want)
	}
}

// palette returns the colors lo to hi−1.
func palette(lo, hi int32) []int32 {
	var out []int32
	for c := lo; c < hi; c++ {
		out = append(out, c)
	}
	return out
}

func TestMaskFitMatchesArrayFit(t *testing.T) {
	for _, colors := range [][]int32{
		nil,
		{0},
		{0, 0, 0},
		{1},
		{2, 3},
		{1, 1, 2, 2, 0, 4},
		{3, 2, 1, 5},
		append(palette(1, 63), 0),         // 1–62 taken: 63, the mask's last fit
		palette(1, 64),                    // 1–63 taken: the fit is 64, a fallback
		append(palette(0, 64), 65, 66),    // the fit is 64 again
		{1, 2, 64},                        // a color with no bit of its own
		{65},                              // aliases bit 1
		{1, 127},                          // aliases bit 63
		append(palette(2, 64), 200),       // 1 free, but a color of 200
		append(palette(1, 30), 31, 31, 0), // duplicates
	} {
		checkMaskFit(t, colors)
	}
}

// FuzzMaskFit checks maskFit against arrayFit on neighbor-color multisets:
// each byte is a color, so colors of 64 and more and full palettes are in
// reach.
func FuzzMaskFit(f *testing.F) {
	full := make([]byte, 63)
	for i := range full {
		full[i] = byte(i + 1)
	}
	f.Add(full)
	f.Add(full[:62])
	f.Add([]byte{0, 1, 2, 64})
	f.Add([]byte{65, 129, 193})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		colors := make([]int32, len(b))
		for i, c := range b {
			colors[i] = int32(c)
		}
		checkMaskFit(t, colors)
	})
}
