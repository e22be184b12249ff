//go:build race

package sched

// raceEnabled mirrors the test binary's -race state: the detector's shadow
// state allocates on paths that are allocation-free in plain builds, so
// alloc counts are only meaningful without it.
const raceEnabled = true
