package maprange_test

import (
	"testing"

	"ecgrid/internal/lint/analysistest"
	"ecgrid/internal/lint/maprange"
)

func TestMapRange(t *testing.T) {
	analysistest.Run(t, "testdata", maprange.Analyzer,
		"ecgrid/internal/core/mrfix",        // in scope: hits and suppressions
		"ecgrid/internal/faults/mrfaults",   // in scope: fault plans feed sim state
		"ecgrid/internal/spatial/mrspatial", // in scope: index order must not leak
		"ecgrid/internal/scengen/mrscengen", // in scope: generated placement order
		"ecgrid/internal/radio/mrradio",     // in scope: receiver-cache candidate order
		"ecgrid/internal/ras/mrras",         // in scope: page-sweep wake/draw order
		"ecgrid/internal/batch/mrclean",     // out of scope: no diagnostics
	)
}
