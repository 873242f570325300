package graph

import "fmt"

// OptionsError reports an invalid Options field. Build and BuildHyper
// validate up front and return it typed, so a bad configuration fails
// loudly instead of producing a plausible-looking but meaningless graph.
type OptionsError struct {
	Field  string
	Reason string
}

func (e *OptionsError) Error() string {
	return fmt.Sprintf("graph: invalid Options.%s: %s", e.Field, e.Reason)
}

// Validate checks the options for out-of-range values, returning a
// *OptionsError describing the problem, or nil. A sampling rate of
// exactly 0 or 1 disables sampling; anything outside [0, 1] (or NaN) is
// an error.
func (o Options) Validate() error {
	if v := o.TxnSampleRate; !(v >= 0 && v <= 1) {
		return &OptionsError{Field: "TxnSampleRate",
			Reason: fmt.Sprintf("%v is outside [0, 1] (0 and 1 disable sampling)", v)}
	}
	return nil
}
