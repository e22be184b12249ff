// Package perfmodel implements the paper's analytical performance model for
// layered BFS (§III-C).
//
// The computation is L synchronized parallel steps, one per BFS level, with
// x_l vertices at level l, executed by t threads in blocks of b vertices.
// Under the model's five simplifying assumptions (uniform vertex cost, no
// cache effects, independent threads, no scheduling or synchronisation
// overhead), the time of level l is
//
//	c(l) = x_l                    if x_l < b   (one thread handles it)
//	c(l) = ceil(x_l/(t·b)) · b    otherwise    (rounds of t blocks)
//
// and the achievable speedup is Σ x_l / Σ c(l). The model explains both the
// slope change the paper observes on pwtk at ~13 threads and why no
// implementation can beat ~35x on these graphs regardless of SMT.
package perfmodel

import "fmt"

// LevelTime returns c(l) for a level of width x with t threads and block
// size b.
func LevelTime(x int64, t, b int) int64 {
	if x <= 0 {
		return 0
	}
	if t < 1 || b < 1 {
		panic(fmt.Sprintf("perfmodel: invalid t=%d b=%d", t, b))
	}
	bb := int64(b)
	if x < bb {
		return x
	}
	tb := int64(t) * bb
	rounds := (x + tb - 1) / tb
	return rounds * bb
}

// Speedup returns the model's achievable speedup for the given level-width
// profile, thread count and block size.
func Speedup(widths []int64, t, b int) float64 {
	var work, time int64
	for _, x := range widths {
		work += x
		time += LevelTime(x, t, b)
	}
	if time == 0 {
		return 0
	}
	return float64(work) / float64(time)
}

// UpperBound returns the absolute ceiling of the model for a profile: every
// level costs at least one block (if narrower than b, at least its width),
// so speedup ≤ Σx_l / Σ min(x_l, b)·… — equivalently the speedup at t → ∞.
func UpperBound(widths []int64, b int) float64 {
	var work, time int64
	for _, x := range widths {
		work += x
		if x <= 0 {
			continue
		}
		if x < int64(b) {
			time += x
		} else {
			time += int64(b) // one round of infinitely many threads
		}
	}
	if time == 0 {
		return 0
	}
	return float64(work) / float64(time)
}
