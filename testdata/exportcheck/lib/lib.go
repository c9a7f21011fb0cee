// Package lib plants one case of the exported-caller check per name.
package lib

import "errors"

// Uncalled is referenced by nothing: flagged.
func Uncalled() {}

// UncalledVar is referenced by nothing: flagged.
var UncalledVar = 1

// OnlyOwnTests is referenced by lib_test.go only: flagged.
func OnlyOwnTests() int { return 1 }

// BenchOnly is called by the bench/ main package only: not flagged.
func BenchOnly() *Box { return &Box{} }

// Doer is a module interface: Box.Do satisfies it, so Do is not flagged.
type Doer interface{ Do() }

// Box is used by BenchOnly.
type Box struct{ err error }

func (b *Box) Do() {}

// Uncalled on a used type is referenced by nothing: flagged.
func (b *Box) Uncalled() {}

// Error and Unwrap satisfy error and the errors package's anonymous
// interface: not flagged.
func (b *Box) Error() string { return "box" }
func (b *Box) Unwrap() error { return b.err }

var _ Doer = (*Box)(nil)

var _ = errors.Unwrap
