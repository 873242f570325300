package graph

import (
	"errors"
	"math"
	"testing"

	"schism/internal/workload"
)

func TestOptionsValidate(t *testing.T) {
	valid := []Options{
		{},
		{Coalesce: true, Replication: true},
		{Coalesce: true, TxnSampleRate: 0.5}, // txn sampling keeps signatures intact
		{TxnSampleRate: 1},                   // 1 disables sampling
	}
	for i, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("valid options %d: Validate() = %v", i, err)
		}
	}

	for i, o := range []Options{
		{TxnSampleRate: -0.1},
		{TxnSampleRate: 1.5},
		{TxnSampleRate: math.NaN()},
	} {
		err := o.Validate()
		var oe *OptionsError
		if !errors.As(err, &oe) {
			t.Errorf("invalid options %d: Validate() = %v, want *OptionsError", i, err)
			continue
		}
		if oe.Field != "TxnSampleRate" {
			t.Errorf("invalid options %d: Field = %q, want TxnSampleRate", i, oe.Field)
		}
	}
}

// TestBuildRejectsInvalidOptions checks both builders validate up front:
// an out-of-range rate fails with the typed error instead of silently
// producing an empty or unsampled graph.
func TestBuildRejectsInvalidOptions(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(*workload.Trace, Options) (*Graph, error)
		opts  Options
		field string // "" means the options are valid
	}{
		{"Build/rate", Build, Options{TxnSampleRate: 2}, "TxnSampleRate"},
		{"BuildHyper/rate", BuildHyper, Options{TxnSampleRate: -1}, "TxnSampleRate"},
		{"Build/valid", Build, Options{Coalesce: true, TxnSampleRate: 0.5}, ""},
		{"BuildHyper/valid", BuildHyper, Options{Replication: true}, ""},
	} {
		_, err := tc.build(bankTrace(), tc.opts)
		if tc.field == "" {
			if err != nil {
				t.Errorf("%s: err = %v, want nil", tc.name, err)
			}
			continue
		}
		var oe *OptionsError
		if !errors.As(err, &oe) || oe.Field != tc.field {
			t.Errorf("%s: err = %v, want *OptionsError on %s", tc.name, err, tc.field)
		}
	}
}
