package main

import (
	"slices"
	"testing"

	"micgraph/internal/core"
)

// TestExperimentIDs checks -exp's list expansion: the group names stand for
// their groups anywhere in a list, every other token is an id as given.
func TestExperimentIDs(t *testing.T) {
	paper, abl := core.IDs(core.GroupPaper), core.IDs(core.GroupAblation)
	for _, tc := range []struct {
		list string
		want []string
	}{
		{"all", paper},
		{"ablations", abl},
		{"fig1a", []string{"fig1a"}},
		{"fig1a, fig2", []string{"fig1a", "fig2"}},
		{"ablations,extra-rmat,extra-knc", append(slices.Clone(abl), "extra-rmat", "extra-knc")},
		{"extra-knc,all", append([]string{"extra-knc"}, paper...)},
		{"nope", []string{"nope"}},
	} {
		if got := experimentIDs(tc.list); !slices.Equal(got, tc.want) {
			t.Errorf("experimentIDs(%q) = %v, want %v", tc.list, got, tc.want)
		}
	}
}
