// Package chaotic implements the asynchronous iterative method of Section
// II.C of the paper — Equation 5, the "chaotic relaxation" of Chazan &
// Miranker that all asynchronous-solver theory builds on — at distributed
// granularity: the matrix rows are block-partitioned over P processes
// (goroutines), each process relaxes its own rows, and boundary values
// travel to neighbouring processes through newest-wins halo mailboxes with
// optional injected latency. In asynchronous mode there is no barrier:
// a process waits only when it is more than pace.DefaultLead sweeps ahead
// of what an unfinished neighbour's newest halo reports, which keeps the
// delays bounded as the convergence theory assumes; the iteration then
// converges whenever ρ(|G|) < 1 (see package spectral).
//
// The synchronous mode (barrier after every sweep) is the classical Jacobi
// / block-GS baseline and is bit-reproducible against the serial iteration,
// which the tests exploit.
package chaotic

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"asyncmg/internal/async"
	"asyncmg/internal/pace"
	"asyncmg/internal/partition"
	"asyncmg/internal/sparse"
	"asyncmg/internal/vec"
)

// Relaxation selects the local relaxation each process applies to its rows.
type Relaxation int

const (
	// Jacobi relaxes every owned row against the previous local iterate
	// (weighted by Omega).
	Jacobi Relaxation = iota
	// GaussSeidel sweeps the owned rows in order, using freshly updated
	// owned values and the latest received halo values — block Jacobi
	// across processes, Gauss-Seidel within, the distributed analogue of
	// the paper's hybrid smoother.
	GaussSeidel
)

func (r Relaxation) String() string {
	if r == GaussSeidel {
		return "gauss-seidel"
	}
	return "jacobi"
}

// Config parameterizes a distributed relaxation solve.
type Config struct {
	// Processes is the number of row-block processes.
	Processes int
	// Sweeps is the number of local sweeps each process performs.
	Sweeps int
	// Relax selects Jacobi or GaussSeidel local relaxation.
	Relax Relaxation
	// Omega is the Jacobi damping weight (ignored for GaussSeidel);
	// 0 means 1 (undamped).
	Omega float64
	// Synchronous inserts a global barrier after every sweep, recovering
	// the classical synchronous iteration.
	Synchronous bool
	// HaloDelay delays every halo message by this duration, modelling
	// interconnect latency in asynchronous mode.
	HaloDelay time.Duration
}

// Result reports a distributed relaxation solve.
type Result struct {
	// X is the final iterate.
	X []float64
	// RelRes is ‖b − A X‖₂/‖b‖₂.
	RelRes float64
	// HaloMessages counts boundary-exchange messages sent.
	HaloMessages int64
	// Elapsed is the wall-clock solve time.
	Elapsed time.Duration
	// Diverged is set when the final iterate is non-finite.
	Diverged bool
}

// haloMsg carries one process's boundary values to a neighbour.
type haloMsg struct {
	seq  int64
	vals []float64
}

// plan holds the precomputed communication structure.
type plan struct {
	ranges []partition.Range
	// needs[p][q] lists the global indices process p reads from process q
	// (sorted); empty slices mean no edge.
	needs [][][]int
}

// buildPlan computes, for every process pair (p, q), which of q's entries
// p's rows reference.
func buildPlan(a *sparse.CSR, procs int) *plan {
	pl := &plan{ranges: partition.SplitRows(a.Rows, procs)}
	owner := make([]int, a.Rows)
	for p, rg := range pl.ranges {
		for i := rg.Lo; i < rg.Hi; i++ {
			owner[i] = p
		}
	}
	pl.needs = make([][][]int, procs)
	for p := range pl.needs {
		pl.needs[p] = make([][]int, procs)
		rg := pl.ranges[p]
		seen := map[int]bool{}
		for i := rg.Lo; i < rg.Hi; i++ {
			for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
				j := a.ColIdx[q]
				if j < rg.Lo || j >= rg.Hi {
					if !seen[j] {
						seen[j] = true
						o := owner[j]
						pl.needs[p][o] = append(pl.needs[p][o], j)
					}
				}
			}
		}
		for q := range pl.needs[p] {
			sortInts(pl.needs[p][q])
		}
	}
	return pl
}

func sortInts(v []int) {
	for i := 1; i < len(v); i++ {
		x := v[i]
		j := i - 1
		for j >= 0 && v[j] > x {
			v[j+1] = v[j]
			j--
		}
		v[j+1] = x
	}
}

// Solve runs the distributed (a)synchronous relaxation on A x = b, x0 = 0.
func Solve(a *sparse.CSR, b []float64, cfg Config) (*Result, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("chaotic: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if len(b) != n {
		return nil, fmt.Errorf("chaotic: len(b) = %d, want %d", len(b), n)
	}
	if cfg.Processes < 1 {
		return nil, fmt.Errorf("chaotic: Processes must be >= 1, got %d", cfg.Processes)
	}
	if cfg.Sweeps < 1 {
		return nil, fmt.Errorf("chaotic: Sweeps must be >= 1, got %d", cfg.Sweeps)
	}
	procs := cfg.Processes
	if procs > n {
		procs = n
	}
	omega := cfg.Omega
	if omega == 0 {
		omega = 1
	}
	diag := a.Diag()
	for i, d := range diag {
		if d == 0 {
			return nil, fmt.Errorf("chaotic: zero diagonal at row %d", i)
		}
	}

	pl := buildPlan(a, procs)
	// Mailboxes: mailbox[p][q] carries q's values that p needs.
	mailboxes := make([][]chan haloMsg, procs)
	for p := range mailboxes {
		mailboxes[p] = make([]chan haloMsg, procs)
		for q := range mailboxes[p] {
			if p != q && len(pl.needs[p][q]) > 0 {
				mailboxes[p][q] = make(chan haloMsg, 1)
			}
		}
	}
	var msgCount int64
	var msgMu sync.Mutex
	post := func(p, q int, seq int64, vals []float64) {
		msgMu.Lock()
		msgCount++
		msgMu.Unlock()
		msg := haloMsg{seq: seq, vals: vals}
		deliver := func() {
			for {
				select {
				case mailboxes[p][q] <- msg:
					return
				default:
					select {
					case cur := <-mailboxes[p][q]:
						if cur.seq > msg.seq {
							msg = cur
						}
					default:
					}
				}
			}
		}
		if cfg.HaloDelay > 0 && !cfg.Synchronous {
			go func() {
				time.Sleep(cfg.HaloDelay)
				deliver()
			}()
			return
		}
		deliver()
	}

	// Each process keeps a full-length local copy of x; only owned and
	// halo entries are ever read. The final answer gathers owned slices.
	locals := make([][]float64, procs)
	for p := range locals {
		locals[p] = make([]float64, n)
	}
	final := make([]float64, n)
	var barrier *async.Barrier
	if cfg.Synchronous {
		barrier = async.NewBarrier(procs)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			x := locals[p]
			rg := pl.ranges[p]
			old := make([]float64, rg.Len()) // previous owned values (Jacobi)
			// heard[q] is the newest sweep count a halo from q has
			// reported. A process p reads no halo from never bounds its
			// lead, so it starts at Sweeps (finished).
			heard := make([]int, procs)
			for q := range heard {
				if mailboxes[p][q] == nil {
					heard[q] = cfg.Sweeps
				}
			}
			heardFrom := func(q int) int { return heard[q] }
			// drain applies whatever halo values have arrived (possibly
			// none, possibly from several sweeps ahead).
			drain := func() {
				for q := 0; q < procs; q++ {
					ch := mailboxes[p][q]
					if ch == nil {
						continue
					}
					select {
					case msg := <-ch:
						for z, j := range pl.needs[p][q] {
							x[j] = msg.vals[z]
						}
						heard[q] = max(heard[q], int(msg.seq))
					default:
					}
				}
			}
			for sweep := 0; sweep < cfg.Sweeps; sweep++ {
				// Asynchronous mode: drain the mailboxes, then, while more
				// than pace.DefaultLead sweeps ahead of what an unfinished
				// neighbour last reported, yield and drain again. Halos
				// carry their sender's sweep count, so the pacing needs no
				// shared state. Without it a process the scheduler runs
				// first (or one whose halos are delayed) finishes every
				// sweep against stale neighbour values and stops with its
				// rows unconverged: Eq. 5's convergence assumes every
				// process keeps relaxing with bounded delay. Synchronous
				// mode instead exchanges halos in the barrier-framed
				// protocol at the bottom of the sweep, so a fast
				// neighbour's current-sweep values can never leak in.
				if !cfg.Synchronous {
					drain()
					for !pace.Within(procs, p, sweep, cfg.Sweeps, pace.DefaultLead, heardFrom) {
						runtime.Gosched()
						drain()
					}
				}
				// Relax owned rows.
				switch cfg.Relax {
				case GaussSeidel:
					a.GaussSeidelSweepRange(x, b, rg.Lo, rg.Hi)
				default:
					copy(old, x[rg.Lo:rg.Hi])
					for i := rg.Lo; i < rg.Hi; i++ {
						sum := b[i]
						for q := a.RowPtr[i]; q < a.RowPtr[i+1]; q++ {
							j := a.ColIdx[q]
							if j == i {
								continue
							}
							if j >= rg.Lo && j < rg.Hi {
								sum -= a.Vals[q] * old[j-rg.Lo]
							} else {
								sum -= a.Vals[q] * x[j]
							}
						}
						x[i] = (1-omega)*old[i-rg.Lo] + omega*sum/diag[i]
					}
				}
				// Push boundary values to every process that needs them.
				for q := 0; q < procs; q++ {
					if q == p || mailboxes[q] == nil || mailboxes[q][p] == nil {
						continue
					}
					need := pl.needs[q][p]
					vals := make([]float64, len(need))
					for z, j := range need {
						vals[z] = x[j]
					}
					post(q, p, int64(sweep+1), vals)
				}
				if cfg.Synchronous {
					barrier.Wait()
					// In synchronous mode every halo message for this sweep
					// has been posted; drain it before the next sweep so the
					// iteration is exactly the classical one.
					drain()
					barrier.Wait()
				} else {
					runtime.Gosched()
				}
			}
			copy(final[rg.Lo:rg.Hi], x[rg.Lo:rg.Hi])
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)

	r := make([]float64, n)
	a.Residual(r, b, final)
	nb := vec.Norm2(b)
	if nb == 0 {
		nb = 1
	}
	return &Result{
		X:            final,
		RelRes:       vec.Norm2(r) / nb,
		HaloMessages: msgCount,
		Elapsed:      elapsed,
		Diverged:     vec.HasNonFinite(final),
	}, nil
}
