package analysis

// All returns the full analyzer suite with production configuration:
// the real pool type, the real nil-guarded hook types, the real
// event-scheduled package lists and the committed schema golden.
// cmd/latsimvet and CI run exactly this.
func All() []*Analyzer {
	return []*Analyzer{
		NewPoolsafety(),
		NewNilsafe(),
		NewSimdet(),
		NewHookpure(),
		NewSchemaver(),
	}
}
