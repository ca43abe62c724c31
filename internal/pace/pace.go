// Package pace holds the bounded-lead rule both asynchronous runtimes use
// to keep grids' correction counts balanced. The paper's full-async model
// (§III) assumes every grid keeps correcting with a bounded delay, and its
// conclusion notes that grid-independent convergence is lost when the
// number of corrections is unbalanced: with one cheap coarse grid and one
// expensive fine grid, an unpaced run degenerates to "all coarse
// corrections, then all fine corrections". The rule below bounds how far
// any grid may run ahead of the slowest other unfinished grid.
//
// The shared-memory runtime (internal/async) and the message-passing
// simulation (internal/distmem) both call Within, so the two cannot drift
// apart.
package pace

// DefaultLead is the default bound, in corrections, on how far a grid may
// run ahead of the slowest other unfinished grid.
const DefaultLead = 2

// Slowest returns the smallest correction count among the n grids other
// than k that have not finished (count(j) < maxCorr), and false when every
// other grid has finished. Finished (or retired) grids never bound the
// lead, so the slowest unfinished grid can always proceed and pacing
// cannot deadlock.
func Slowest(n, k, maxCorr int, count func(j int) int) (int, bool) {
	slow, ok := 0, false
	for j := 0; j < n; j++ {
		if j == k {
			continue
		}
		c := count(j)
		if c >= maxCorr {
			continue
		}
		if !ok || c < slow {
			slow, ok = c, true
		}
	}
	return slow, ok
}

// Within reports whether grid k, about to compute its it-th correction
// (0-based: it corrections already applied), stays within lead
// corrections of every other unfinished grid among the n grids, whose
// applied-correction counts count reports: it <= count(j) + lead for
// every j != k with count(j) < maxCorr. A negative lead is unbounded.
func Within(n, k, it, maxCorr, lead int, count func(j int) int) bool {
	if lead < 0 {
		return true
	}
	slow, ok := Slowest(n, k, maxCorr, count)
	return !ok || it <= slow+lead
}
