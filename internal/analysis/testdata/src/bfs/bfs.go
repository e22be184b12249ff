// Package bfs is a wallclock fixture: it stands in for the real kernel
// package internal/bfs (analyzer scoping matches the "bfs" path segment).
package bfs

import "time"

// levelLoop reads the wall clock directly — both forms must be flagged.
func levelLoop() time.Duration {
	start := time.Now() // want "direct time.Now call in clock-disciplined package"
	var total time.Duration
	total += time.Since(start) // want "direct time.Since call in clock-disciplined package"
	return total
}

// okUses shows the negative space: time types, constructors, and
// arithmetic are fine — only the clock reads are forbidden.
func okUses() time.Duration {
	d := 5 * time.Millisecond
	epoch := time.Unix(0, 0)
	return d + epoch.Sub(time.Time{})
}
