// Package relay is the dependent half of the cross-package hookpure
// fixture: its hook methods reach helper's effects only through
// helper's exported FnEffects facts, so a matched want on a call site
// is the facts export/import round trip across a package boundary.
package relay

import "latsim/internal/analysis/testdata/src/hookpure/helper"

// Recorder is the fixture hook type.
type Recorder struct{ last int }

// Observe calls into another package that writes its own global.
func (r *Recorder) Observe() {
	helper.Bump() // want `hook method \(relay\.Recorder\)\.Observe writes package-level state: call to helper\.Bump`
}

// Local calls only effect-free code in the other package; it must stay
// silent.
func (r *Recorder) Local(x int) {
	r.last = helper.Pure(x)
}
