package pace

import "testing"

func TestSlowestSkipsSelfAndFinished(t *testing.T) {
	const maxCorr = 10
	cases := []struct {
		counts []int
		k      int
		slow   int
		ok     bool
	}{
		{[]int{5, 3, 7}, 0, 3, true},
		{[]int{1, 3, 7}, 0, 3, true},       // k's own count is not a bound
		{[]int{5, maxCorr, 7}, 0, 7, true}, // finished grids are skipped
		{[]int{5, maxCorr, maxCorr}, 0, 0, false},
		{[]int{4}, 0, 0, false}, // a single grid is never held
	}
	for _, c := range cases {
		count := func(j int) int { return c.counts[j] }
		slow, ok := Slowest(len(c.counts), c.k, maxCorr, count)
		if slow != c.slow || ok != c.ok {
			t.Errorf("Slowest(%v, k=%d) = %d, %v; want %d, %v", c.counts, c.k, slow, ok, c.slow, c.ok)
		}
		// No deadlock: the slowest unfinished grid may always proceed,
		// even at lead 0.
		lo := -1
		for j, v := range c.counts {
			if v < maxCorr && (lo < 0 || v < c.counts[lo]) {
				lo = j
			}
		}
		if lo >= 0 && !Within(len(c.counts), lo, c.counts[lo], maxCorr, 0, count) {
			t.Errorf("%v: slowest grid %d held at lead 0", c.counts, lo)
		}
	}
}
