// The portfolio runner races every applicable backend on one job and
// cross-attests the winner. The first exhaustive, error-free verdict
// wins and is surfaced immediately (OnWinner); the losers keep running —
// bounded by their per-backend deadlines plus a post-win grace window —
// as asynchronous cross-checkers. A backend that is inapplicable, times
// out, errors or panics degrades the attestation (fewer co-signers),
// never the job; only the anchor's failure fails the run. A confirmed
// disagreement between two exhaustive verdicts is returned on the
// Outcome for the caller to quarantine — the portfolio itself never
// decides to serve anyway.

package backend

import (
	"context"
	"time"

	"hmc/internal/prog"
)

// DefaultGrace bounds how long losers may keep cross-checking after the
// winner's verdict lands when PortfolioOptions.Grace is zero.
const DefaultGrace = 3 * time.Second

// AttemptStatus classifies one backend's part in a portfolio run.
type AttemptStatus string

const (
	// AttemptWon: produced the first exhaustive verdict.
	AttemptWon AttemptStatus = "won"
	// AttemptAgreed / AttemptDisagreed: finished exhaustively and was
	// compared against the winner.
	AttemptAgreed    AttemptStatus = "agreed"
	AttemptDisagreed AttemptStatus = "disagreed"
	// AttemptSkipped: the applicability guard declined the request.
	AttemptSkipped AttemptStatus = "skipped"
	// AttemptTimeout: the run was interrupted by its deadline, the
	// post-win grace cancellation, or the job context.
	AttemptTimeout AttemptStatus = "timeout"
	// AttemptTruncated: the engine hit its own enumeration budget.
	AttemptTruncated AttemptStatus = "truncated"
	// AttemptError: the engine failed (contained panic or input error).
	AttemptError AttemptStatus = "error"
)

// Attempt is one backend's attestation record, carried on job payloads.
type Attempt struct {
	Backend string        `json:"backend"`
	Status  AttemptStatus `json:"status"`
	Reason  string        `json:"reason,omitempty"`
	Elapsed time.Duration `json:"elapsed_ns"`
	Verdict *Verdict      `json:"verdict,omitempty"`
}

// Disagreement pairs the two exhaustive verdicts that split, plus a
// human-readable diff. It is the payload of a quarantine artifact.
type Disagreement struct {
	Diff      string   `json:"diff"`
	Winner    *Verdict `json:"winner"`
	Dissenter *Verdict `json:"dissenter"`
}

// Outcome is one portfolio run: the served verdict, the per-backend
// attestation trail, and the first disagreement if any.
type Outcome struct {
	Verdict      *Verdict
	Attempts     []Attempt
	Disagreement *Disagreement
}

// PortfolioOptions configures a Portfolio.
type PortfolioOptions struct {
	// Backends to race, anchor first. Nil uses DefaultBackends. The
	// anchor (index 0) is special: it is never skipped, its error fails
	// the run, and its verdict is the fallback when no backend finishes
	// exhaustively.
	Backends []Backend
	// BackendTimeout is the per-run deadline for non-anchor backends
	// (0 = bounded only by the job context and the grace window).
	BackendTimeout time.Duration
	// Grace bounds how long losing cross-checkers keep running after a
	// win: 0 = DefaultGrace, negative = cancel losers immediately on a
	// win. The anchor is exempt — only the job context bounds it, so the
	// authoritative run is never cut short by a faster colleague.
	Grace time.Duration
	// OnWinner, when non-nil, observes the winning verdict the moment it
	// lands — before cross-checking completes. Callers may surface it
	// (progress views) but must not commit it until Run returns clean.
	OnWinner func(*Verdict)
}

// DefaultBackends is the standard portfolio: the DFS anchor plus both
// oracle engines.
func DefaultBackends() []Backend {
	return []Backend{&DFS{}, &Axenum{}, &Operational{}}
}

// Portfolio races backends per job. Safe for concurrent use.
type Portfolio struct {
	opts PortfolioOptions
}

// NewPortfolio builds a runner from opts, applying defaults.
func NewPortfolio(opts PortfolioOptions) *Portfolio {
	if len(opts.Backends) == 0 {
		opts.Backends = DefaultBackends()
	}
	if opts.Grace == 0 {
		opts.Grace = DefaultGrace
	}
	return &Portfolio{opts: opts}
}

// slot is one racing backend's in-flight state. Fields other than the
// channels are written by the slot goroutine before it sends itself on
// the results channel, which is the happens-before edge the collector
// relies on.
type slot struct {
	b       Backend
	idx     int // index into Outcome.Attempts
	anchor  bool
	cancel  context.CancelFunc
	verdict *Verdict
	err     error
	elapsed time.Duration
}

// Run races the applicable backends on p under spec. It returns once
// every launched backend has finished (each bounded by its deadline, the
// grace window and ctx), so no goroutines outlive the call. The returned
// error is the anchor's error or a pre-flight failure; disagreements are
// reported on the Outcome, not as an error.
func (pf *Portfolio) Run(ctx context.Context, p *prog.Program, spec Spec) (*Outcome, error) {
	out := &Outcome{}
	anchor := pf.opts.Backends[0]
	if err := anchor.Applicable(p, spec); err != nil {
		return nil, err // anchor is never skipped: inapplicability is a request error
	}
	var slots []*slot
	for i, b := range pf.opts.Backends {
		att := Attempt{Backend: b.Name()}
		if i > 0 {
			if err := b.Applicable(p, spec); err != nil {
				att.Status = AttemptSkipped
				att.Reason = err.Error()
				out.Attempts = append(out.Attempts, att)
				continue
			}
		}
		out.Attempts = append(out.Attempts, att)
		slots = append(slots, &slot{b: b, idx: len(out.Attempts) - 1, anchor: i == 0})
	}

	results := make(chan *slot, len(slots))
	for _, sl := range slots {
		runCtx := ctx
		if !sl.anchor && pf.opts.BackendTimeout > 0 {
			runCtx, sl.cancel = context.WithTimeout(ctx, pf.opts.BackendTimeout)
		} else {
			runCtx, sl.cancel = context.WithCancel(ctx)
		}
		go func(sl *slot, runCtx context.Context) {
			start := time.Now() //hmc:nondet(race timing is observability, never fed into verdicts)
			v, err := sl.b.Run(runCtx, p, spec)
			sl.elapsed = time.Since(start)
			sl.verdict, sl.err = v, err
			results <- sl
		}(sl, runCtx)
	}
	defer func() {
		for _, sl := range slots {
			sl.cancel()
		}
	}()

	// Collect: the first exhaustive error-free verdict wins; a win arms
	// the grace timer that bounds the remaining cross-checkers.
	var winner *slot
	var graceCh <-chan time.Time
	var graceTimer *time.Timer
	finished := make([]*slot, 0, len(slots))
	for len(finished) < len(slots) {
		select {
		case sl := <-results:
			finished = append(finished, sl)
			if winner == nil && sl.err == nil && sl.verdict != nil && sl.verdict.Exhaustive {
				winner = sl
				out.Verdict = sl.verdict
				if pf.opts.OnWinner != nil {
					pf.opts.OnWinner(sl.verdict)
				}
				if len(finished) < len(slots) {
					if pf.opts.Grace < 0 {
						pf.cancelOthers(slots, finished)
					} else {
						graceTimer = time.NewTimer(pf.opts.Grace)
						graceCh = graceTimer.C
					}
				}
			}
		case <-graceCh:
			graceCh = nil
			pf.cancelOthers(slots, finished)
		}
	}
	if graceTimer != nil {
		graceTimer.Stop()
	}

	// Classify and cross-check. The comparisons run after all slots are
	// back so the attestation trail is complete and deterministic in
	// content (the winner identity is inherently a race).
	var anchorErr error
	for _, sl := range finished {
		att := &out.Attempts[sl.idx]
		att.Elapsed = sl.elapsed
		att.Verdict = sl.verdict
		switch {
		case sl == winner:
			att.Status = AttemptWon
		case sl.err != nil:
			att.Status = AttemptError
			att.Reason = sl.err.Error()
			if sl.anchor {
				anchorErr = sl.err
			}
		case sl.verdict == nil:
			att.Status = AttemptError
			att.Reason = "backend returned no verdict"
		case sl.verdict.Interrupted:
			att.Status = AttemptTimeout
			att.Reason = "cancelled before completing"
		case !sl.verdict.Exhaustive:
			att.Status = AttemptTruncated
			att.Reason = sl.verdict.TruncatedReason
		default:
			if diff := Diff(out.Verdict, sl.verdict); diff != "" {
				att.Status = AttemptDisagreed
				att.Reason = diff
				if out.Disagreement == nil {
					out.Disagreement = &Disagreement{
						Diff:      diff,
						Winner:    out.Verdict,
						Dissenter: sl.verdict,
					}
				}
			} else {
				att.Status = AttemptAgreed
			}
		}
	}
	if anchorErr != nil {
		// The anchor is the authority: its engine failure fails the run
		// even when a faster backend already produced a verdict.
		return out, anchorErr
	}
	if winner == nil {
		// No exhaustive verdict anywhere: fall back to the anchor's
		// partial result, exactly like the single-engine path serving a
		// truncated or interrupted exploration.
		for _, sl := range finished {
			if sl.anchor {
				out.Verdict = sl.verdict
			}
		}
	}
	return out, nil
}

// cancelOthers cancels every non-anchor slot that has not finished yet.
// The anchor is exempt: it is the authority whose raw result the job
// serves, so only the job context (deadline, client cancel) may stop it —
// exactly the bound the single-engine path has always had.
func (pf *Portfolio) cancelOthers(slots, finished []*slot) {
	done := make(map[*slot]bool, len(finished))
	for _, sl := range finished {
		done[sl] = true
	}
	for _, sl := range slots {
		if !done[sl] && !sl.anchor {
			sl.cancel()
		}
	}
}
