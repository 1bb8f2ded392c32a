package experiments

import (
	"strings"
	"testing"

	"vvd/internal/core"
	"vvd/internal/scenario"
)

// tinyGrid is the occupancy × SNR cross product the grid tests evaluate:
// four cells, small enough to train a VVD per cell under -race in CI.
func tinyGrid() scenario.Grid {
	return scenario.Grid{
		Rows: []scenario.Combinator{scenario.Occupancy(1), scenario.Occupancy(2)},
		Cols: []scenario.Combinator{scenario.SNR(7), scenario.SNR(25)},
	}
}

// TestEvaluateGridParallelMatchesSequential pins the grid acceptance bound:
// the rendered occupancy × SNR table is byte-identical at Workers=1 and
// Workers=8 — the grid expansion adds no nondeterminism on top of the
// scenario sweep's parity guarantee.
func TestEvaluateGridParallelMatchesSequential(t *testing.T) {
	techniques := []string{core.TechPreamble, core.TechKalmanAR5}
	seq, err := EvaluateGrid(sweepParams(1), tinyGrid(), techniques)
	if err != nil {
		t.Fatal(err)
	}
	par, err := EvaluateGrid(sweepParams(8), tinyGrid(), techniques)
	if err != nil {
		t.Fatal(err)
	}
	a, b := RenderGridTable(seq, techniques), RenderGridTable(par, techniques)
	if a != b {
		t.Fatalf("grid table differs between workers=1 and workers=8:\n--- workers=1\n%s\n--- workers=8\n%s", a, b)
	}
}

// TestEvaluateGridShape pins the reshaping contract: cell (i,j) holds the
// evaluation of the scenario composed from row i and column j, and the
// rendered table carries every axis label and technique block.
func TestEvaluateGridShape(t *testing.T) {
	techniques := []string{core.TechPreamble}
	gr, err := EvaluateGrid(sweepParams(0), tinyGrid(), techniques)
	if err != nil {
		t.Fatal(err)
	}
	if gr.RowAxis != "occ" || gr.ColAxis != "snr" {
		t.Fatalf("axes %q/%q", gr.RowAxis, gr.ColAxis)
	}
	if len(gr.Cells) != 2 || len(gr.Cells[0]) != 2 {
		t.Fatalf("grid shape %dx%d, want 2x2", len(gr.Cells), len(gr.Cells[0]))
	}
	wantNames := [2][2]string{
		{"occ1+snr7dB", "occ1+snr25dB"},
		{"occ2+snr7dB", "occ2+snr25dB"},
	}
	for i := range gr.Cells {
		for j := range gr.Cells[i] {
			if gr.Cells[i][j].Name != wantNames[i][j] {
				t.Fatalf("cell (%d,%d) evaluated %q, want %q", i, j, gr.Cells[i][j].Name, wantNames[i][j])
			}
			sum := gr.Cells[i][j].Summary()
			if _, ok := sum[core.TechPreamble]; !ok {
				t.Fatalf("cell (%d,%d) missing the preamble summary", i, j)
			}
		}
	}
	// Row 1 carries two occupants, row 0 one.
	if gr.Cells[1][0].Occupants != 2 || gr.Cells[0][0].Occupants != 1 {
		t.Fatalf("occupancy axis did not materialize: %d/%d",
			gr.Cells[0][0].Occupants, gr.Cells[1][0].Occupants)
	}

	table := RenderGridTable(gr, techniques)
	for _, want := range []string{"occ1", "occ2", "snr7dB", "snr25dB", core.TechPreamble, `occ\snr`} {
		if !strings.Contains(table, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, table)
		}
	}

	// Degenerate grids are rejected, not silently empty.
	if _, err := EvaluateGrid(sweepParams(0), scenario.Grid{}, techniques); err == nil {
		t.Fatal("empty grid accepted")
	}
}
