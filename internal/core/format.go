package core

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// WriteText renders an experiment as an aligned text table: one row per
// thread count, one column per series (or the Table I layout for table
// experiments).
func WriteText(w io.Writer, e *Experiment) error {
	if _, err := fmt.Fprintf(w, "== %s [%s]\n", e.Title, e.ID); err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(e.Rows) > 0 {
		fmt.Fprintln(tw, "Name\t|V|\t|E|\tΔ\t#Color\t(paper)\t#Level\t(paper)")
		for _, r := range e.Rows {
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
				r.Name, r.V, r.E, r.MaxDeg, r.Colors, r.PaperCol, r.Levels, r.PaperLev)
		}
	} else {
		header := []string{"threads"}
		for _, s := range e.Series {
			header = append(header, s.Label)
		}
		fmt.Fprintln(tw, strings.Join(header, "\t"))
		if len(e.Series) > 0 {
			for ti, t := range e.Series[0].Threads {
				row := []string{fmt.Sprintf("%d", t)}
				for _, s := range e.Series {
					row = append(row, fmt.Sprintf("%.2f", s.Values[ti]))
				}
				fmt.Fprintln(tw, strings.Join(row, "\t"))
			}
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if e.Notes != "" {
		if _, err := fmt.Fprintf(w, "-- %s\n", e.Notes); err != nil {
			return err
		}
	}
	for _, ce := range e.Errors {
		if _, err := fmt.Fprintf(w, "!! %s\n", ce.Error()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// jsonExperiment is the JSON shape of one experiment: series and table rows
// as-is, errors flattened to their formatted strings (error values don't
// marshal), and the per-cell telemetry records next to them.
type jsonExperiment struct {
	ID     string          `json:"id"`
	Title  string          `json:"title"`
	Series []Series        `json:"series,omitempty"`
	Rows   []TableRow      `json:"rows,omitempty"`
	Notes  string          `json:"notes,omitempty"`
	Errors []string        `json:"errors,omitempty"`
	Cells  []CellTelemetry `json:"cells,omitempty"`
}

// WriteJSON renders experiments as one indented JSON array. Cell failures
// appear as formatted strings under "errors" (the same text the !! lines
// carry), and harness telemetry — when enabled — as "cells" alongside them.
func WriteJSON(w io.Writer, exps []*Experiment) error {
	out := make([]jsonExperiment, 0, len(exps))
	for _, e := range exps {
		je := jsonExperiment{
			ID: e.ID, Title: e.Title, Series: e.Series, Rows: e.Rows, Notes: e.Notes, Cells: e.Cells,
		}
		for _, ce := range e.Errors {
			je.Errors = append(je.Errors, ce.Error())
		}
		out = append(out, je)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// WriteCSV renders an experiment as CSV (threads plus one column per
// series, or the table columns).
func WriteCSV(w io.Writer, e *Experiment) error {
	if len(e.Rows) > 0 {
		if _, err := fmt.Fprintln(w, "name,vertices,edges,maxdeg,colors,paper_colors,levels,paper_levels"); err != nil {
			return err
		}
		for _, r := range e.Rows {
			if _, err := fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d\n",
				r.Name, r.V, r.E, r.MaxDeg, r.Colors, r.PaperCol, r.Levels, r.PaperLev); err != nil {
				return err
			}
		}
		return nil
	}
	cols := []string{"threads"}
	for _, s := range e.Series {
		cols = append(cols, strings.ReplaceAll(s.Label, ",", ";"))
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	if len(e.Series) == 0 {
		return nil
	}
	for ti, t := range e.Series[0].Threads {
		row := []string{fmt.Sprintf("%d", t)}
		for _, s := range e.Series {
			row = append(row, fmt.Sprintf("%.4f", s.Values[ti]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}
