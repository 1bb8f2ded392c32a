package experiments

import (
	"fmt"
	"strings"

	"vvd/internal/scenario"
)

// GridResult is a multi-axis sweep reshaped onto its two axes: Cells[i][j]
// is the full scenario evaluation of row i × column j, and the label slices
// carry the combinator fragments ("occ4", "snr13dB") that name each line of
// the rendered table.
type GridResult struct {
	RowAxis, ColAxis string
	RowLabels        []string
	ColLabels        []string
	Cells            [][]*ScenarioResult
}

// EvaluateGrid expands the grid's cross product into composed scenarios and
// evaluates every cell through the ordinary scenario sweep, so a grid cell
// is bit-identical to evaluating its composed scenario. The row-major
// expansion order and EvaluateScenarios' determinism in Params.Workers
// carry over: the reshaped result (and hence the rendered table) is
// byte-identical at any fan-out width.
func EvaluateGrid(p Params, g scenario.Grid, techniques []string) (*GridResult, error) {
	if len(g.Rows) == 0 || len(g.Cols) == 0 {
		return nil, fmt.Errorf("experiments: grid needs at least one row and one column combinator")
	}
	flat, err := EvaluateScenarios(p, g.Scenarios(), techniques)
	if err != nil {
		return nil, err
	}
	gr := &GridResult{
		RowAxis:   g.RowAxis(),
		ColAxis:   g.ColAxis(),
		RowLabels: make([]string, len(g.Rows)),
		ColLabels: make([]string, len(g.Cols)),
		Cells:     make([][]*ScenarioResult, len(g.Rows)),
	}
	for i, c := range g.Rows {
		gr.RowLabels[i] = c.String()
	}
	for j, c := range g.Cols {
		gr.ColLabels[j] = c.String()
	}
	for i := range g.Rows {
		gr.Cells[i] = flat[i*len(g.Cols) : (i+1)*len(g.Cols)]
	}
	return gr, nil
}

// RenderGridTable formats a grid sweep as one axis-by-axis block per
// technique: rows down, columns across, each cell "MSE/availability" (or
// "-/availability" for techniques without an MSE, like standard decoding).
// The output contains no timings — it is deterministic for a given campaign
// configuration, which is what lets CI diff it as an artifact and the
// parity test compare it byte-for-byte across worker counts.
func RenderGridTable(gr *GridResult, techniques []string) string {
	if techniques == nil {
		techniques = SweepTechniques
	}
	// Widest cell is "d.dde-dd/d.ddd" (14 runes) plus two spacing columns.
	colw := 16
	for _, l := range gr.ColLabels {
		if len(l)+2 > colw {
			colw = len(l) + 2
		}
	}
	roww := len(gr.RowAxis) + len(gr.ColAxis) + 1
	for _, l := range gr.RowLabels {
		if len(l) > roww {
			roww = len(l)
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "Grid sweep: %s × %s — cell = MSE/availability\n", gr.RowAxis, gr.ColAxis)
	for _, tech := range techniques {
		fmt.Fprintf(&b, "\n%s\n", tech)
		fmt.Fprintf(&b, "%-*s", roww, gr.RowAxis+`\`+gr.ColAxis)
		for _, l := range gr.ColLabels {
			fmt.Fprintf(&b, "%*s", colw, l)
		}
		b.WriteByte('\n')
		for i, rl := range gr.RowLabels {
			fmt.Fprintf(&b, "%-*s", roww, rl)
			for j := range gr.ColLabels {
				sum := gr.Cells[i][j].Summary()
				ts, ok := sum[tech]
				if !ok {
					fmt.Fprintf(&b, "%*s", colw, "-")
					continue
				}
				mse := "-"
				if ts.HasMSE {
					mse = fmt.Sprintf("%.2e", ts.MSE)
				}
				fmt.Fprintf(&b, "%*s", colw, fmt.Sprintf("%s/%.3f", mse, ts.Availability))
			}
			b.WriteByte('\n')
		}
	}
	return strings.TrimRight(b.String(), "\n")
}
