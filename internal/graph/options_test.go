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
		{TxnSampleRate: 0.5, TupleSampleRate: 0.5},
		{Coalesce: true, TxnSampleRate: 0.5}, // txn sampling keeps signatures intact
		{Coalesce: true, TupleSampleRate: 1}, // 1 disables sampling
		{Weights: DataSizeWeight, TxnEdges: StarEdges},
	}
	for i, o := range valid {
		if err := o.Validate(); err != nil {
			t.Errorf("valid options %d: Validate() = %v", i, err)
		}
	}

	invalid := []struct {
		opts  Options
		field string
	}{
		{Options{TxnSampleRate: -0.1}, "TxnSampleRate"},
		{Options{TxnSampleRate: 1.5}, "TxnSampleRate"},
		{Options{TupleSampleRate: math.NaN()}, "TupleSampleRate"},
		{Options{BlanketMaxTuples: -1}, "BlanketMaxTuples"},
		{Options{MinAccesses: -2}, "MinAccesses"},
		{Options{Weights: 99}, "Weights"},
		{Options{TxnEdges: 99}, "TxnEdges"},
		{Options{Coalesce: true, TupleSampleRate: 0.5}, "TupleSampleRate"},
	}
	for i, tc := range invalid {
		err := tc.opts.Validate()
		var oe *OptionsError
		if !errors.As(err, &oe) {
			t.Errorf("invalid options %d: Validate() = %v, want *OptionsError", i, err)
			continue
		}
		if oe.Field != tc.field {
			t.Errorf("invalid options %d: Field = %q, want %q", i, oe.Field, tc.field)
		}
	}
}

// TestBuildRejectsInvalidOptions checks both builders validate up front:
// contradictory settings fail with the typed error instead of silently
// producing a sample-dependent graph, and BuildHyper — whose nets have no
// edge shape to select — rejects StarEdges instead of ignoring it.
func TestBuildRejectsInvalidOptions(t *testing.T) {
	contradictory := Options{Coalesce: true, TupleSampleRate: 0.5}
	star := Options{TxnEdges: StarEdges}
	for _, tc := range []struct {
		name  string
		build func(*workload.Trace, Options) (*Graph, error)
		opts  Options
		field string // "" means the options are valid for that builder
	}{
		{"Build/contradictory", Build, contradictory, "TupleSampleRate"},
		{"BuildHyper/contradictory", BuildHyper, contradictory, "TupleSampleRate"},
		{"Build/star", Build, star, ""},
		{"BuildHyper/star", BuildHyper, star, "TxnEdges"},
		{"BuildHyper/clique", BuildHyper, Options{TxnEdges: CliqueEdges}, ""},
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
