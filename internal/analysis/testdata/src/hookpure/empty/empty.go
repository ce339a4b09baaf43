// Package empty exercises the marker grammar rule: a suppression
// marker with no reason is itself a diagnostic and suppresses nothing.
// (Checked by a direct test, not want comments: the marker's own line
// cannot also carry an expectation comment.)
package empty

// Recorder is the fixture hook type.
type Recorder struct{ counts []int }

// Tick allocates under a marker that gives no reason.
func (r *Recorder) Tick(n int) {
	//hookpure:alloc
	r.counts = append(r.counts, n)
}
