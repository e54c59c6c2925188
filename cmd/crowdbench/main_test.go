package main

import (
	"strings"
	"testing"
)

// TestValidateCounts: a negative -replicates is rejected with an error
// that names the flag, while zero keeps its documented default-selecting
// meaning.
func TestValidateCounts(t *testing.T) {
	for _, replicates := range []int{0, 500} {
		if err := validateCounts(replicates); err != nil {
			t.Errorf("validateCounts(%d) rejected: %v", replicates, err)
		}
	}
	if err := validateCounts(-1); err == nil || !strings.Contains(err.Error(), "-replicates") {
		t.Errorf("negative replicates: err = %v, want an error naming -replicates", err)
	}
}

// TestValidateFormat: every format report.Write knows is accepted, and an
// unknown one is rejected with an error that names the flag, before any
// experiment runs or any output file is created.
func TestValidateFormat(t *testing.T) {
	for _, format := range []string{"table", "csv", "gnuplot"} {
		if err := validateFormat(format); err != nil {
			t.Errorf("validateFormat(%q) rejected: %v", format, err)
		}
	}
	for _, format := range []string{"", "bogus", "CSV"} {
		if err := validateFormat(format); err == nil || !strings.Contains(err.Error(), "-format") {
			t.Errorf("validateFormat(%q): err = %v, want an error naming -format", format, err)
		}
	}
}
