// Package helper is the dependency half of the cross-package hookpure
// fixture: it declares no hook type, but its exported FnEffects facts
// must carry its global write across the package boundary into relay.
package helper

var total int

// Bump writes package-level state; hookpure flags hook methods that call
// it only through the exported fact.
func Bump() {
	total++
}

// Pure has no effects; calls to it must stay silent.
func Pure(x int) int { return x + 1 }
