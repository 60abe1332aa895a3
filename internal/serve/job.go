package serve

import (
	"errors"
	"fmt"

	"argan/internal/ace"
	"argan/internal/algorithms"
	"argan/internal/fault"
	"argan/internal/gap"
	"argan/internal/graph"
	"argan/internal/mem"
)

// execute runs one admitted job to completion inside its own fault domain:
// a private live driver over the shared frozen fragments, localized
// recovery, a mem.Pool slice proportional to its core share, and the job's
// cancel channel wired into the driver's control plane. Any error — crash
// without restart, injected panic, divergence from the reference, deadline
// — quarantines this job only; the service keeps running.
func (s *Service) execute(j *job) {
	res, err := s.runOne(j)
	switch {
	case err == nil:
		s.finalize(j, StateDone, "", res, true)
	case errors.Is(err, gap.ErrCanceled):
		s.mu.Lock()
		reason := j.err // set under s.mu by CancelReason before closing the channel
		s.mu.Unlock()
		if reason == "" {
			reason = "canceled"
		}
		s.finalize(j, StateCanceled, reason, nil, true)
	default:
		if errors.Is(err, gap.ErrWorkerPanic) {
			s.mu.Lock()
			s.quarantined++
			s.mu.Unlock()
		}
		s.finalize(j, StateFailed, err.Error(), nil, true)
	}
}

// runOne builds the job's execution environment and dispatches by app through
// the live-app table. The
// dataset version is pinned here: a concurrent Mutate swaps the service to
// version k+1 without disturbing this job's version-k graph and fragments.
func (s *Service) runOne(j *job) (*JobResult, error) {
	sp := j.spec
	pin, err := s.data.pin(sp.Dataset, sp.Scale, sp.Workers)
	if err != nil {
		return nil, err
	}

	// Memory slice: the job's proportional share of the service budget.
	// Cores gate admission, so the slice always fits — Acquire cannot
	// deadlock a queued job.
	var gov *mem.Governor
	if s.cfg.MemBudget > 0 {
		slice := s.cfg.MemBudget * int64(j.cores) / int64(s.cfg.Cores)
		var release func()
		gov, release, err = s.pool.Acquire(slice)
		if err != nil {
			return nil, fmt.Errorf("memory slice: %w", err)
		}
		defer release()
	}

	var plan *fault.Plan
	if sp.Faults != "" {
		if plan, err = fault.Parse(sp.Faults); err != nil {
			return nil, err // unreachable: normalize() already parsed it
		}
	}

	cfg := gap.LiveConfig{
		Mode:       gap.ModeGAP,
		CheckEvery: sp.CheckEvery,
		Faults:     plan,
		Mem:        gov,
		Health:     j.health,
		Cancel:     j.cancel,
		Watchdog:   s.cfg.Watchdog,
	}

	res, err := algorithms.DispatchLive(sp.App, runApp[float64](pin, sp, cfg), runApp[int32](pin, sp, cfg), runApp[uint32](pin, sp, cfg))
	if err != nil {
		return nil, err
	}
	res.ID, res.App, res.Version = j.id, sp.App, pin.version
	s.mu.Lock()
	if res.Incremental {
		s.incremental++
	} else if res.Fallback != "" {
		s.recomputes++
	}
	s.mu.Unlock()
	if res.Wrong > 0 {
		return nil, fmt.Errorf("result diverged from sequential reference: %d of %d vertices wrong (version %d)", res.Wrong, res.Vertices, pin.version)
	}
	return res, nil
}

// runApp is the retract-and-repush execution path shared by every app; the
// app table's row supplies the program, the incremental planner (how to
// adjust the retained fixpoint for the edge churn between versions), the
// sequential reference and the comparison relation:
//
//  1. Reject a query the pinned version cannot answer (a source that is not
//     one of its vertices).
//  2. Look up the retained fixpoint for this query key. If one exists and
//     the mutation log bridges its version to the pinned one, build the
//     planner's warm state and re-converge from it — verifying against the
//     pinned version's sequential reference unconditionally, so every
//     increment is checked, not trusted.
//  3. If the bridge is gone (log truncation, version skew), fall back to a
//     cold full run and record why in JobResult.Fallback.
//  4. On a clean (non-diverged) finish, retain this run's fixpoint for the
//     next increment.
func runApp[V any](pin pinned, sp JobSpec, cfg gap.LiveConfig) func(*algorithms.LiveApp[V]) (*JobResult, error) {
	return func(app *algorithms.LiveApp[V]) (*JobResult, error) {
		if err := app.CheckSource(sp.Source, pin.g.NumVertices()); err != nil {
			return nil, fmt.Errorf("%w (dataset version %d)", err, pin.version)
		}
		q := ace.Query{Source: graph.VID(sp.Source), Eps: sp.Eps}
		wk := warmKey{app: sp.App, source: sp.Source, eps: sp.Eps}
		verify := sp.Verify
		prior, touched, fallback := pin.ds.warmFor(wk, pin.version)
		if prior != nil {
			ws := app.Warm(prior.g, pin.g, touched, prior.psi.([]V), prior.values.([]V), q)
			// Reseeded fixpoints may come off disk (durable recovery): shape-check
			// against the pinned graph before handing them to the engine, and
			// fall back to a cold run rather than crash on a corrupt-but-plausible
			// snapshot that slipped past the coarser reseed checks.
			if err := ws.Validate(pin.g.NumVertices()); err != nil {
				prior, fallback = nil, fmt.Sprintf("warm state rejected: %v", err)
			} else {
				q.Warm = ws
				verify = true // every increment is verified against the reference
				pin.ds.noteWarmHit()
			}
		}

		var want []V
		if verify {
			key := refKey{app: sp.App, source: sp.Source, eps: sp.Eps, version: pin.version}
			want = pin.ds.reference(key, func() any { return app.Ref(pin.g, q) }).([]V)
		}

		res, lm, err := gap.RunLive(pin.frags, app.Factory, q, cfg)
		if err != nil {
			return nil, err
		}
		out := &JobResult{
			Vertices:   len(res.Values),
			Wrong:      -1,
			Checksum:   app.Checksum(res.Values),
			WallMS:     float64(lm.WallTime) / 1e6,
			Updates:    lm.Updates,
			MsgsSent:   lm.MsgsSent,
			Crashes:    lm.Crashes,
			Recoveries: lm.Recoveries,
			Replayed:   lm.Replayed,
			MemPeak:    lm.MemPeakBytes,
			Spilled:    lm.SpilledBytes,

			Incremental: prior != nil,
			Fallback:    fallback,
		}
		if prior != nil {
			out.IncrementalFrom = prior.version
		}
		if want != nil {
			out.Wrong = app.Wrong(res.Values, want)
		}
		if out.Wrong <= 0 {
			// Retain this fixpoint (raw Ψ and output view, global-indexed) so
			// the next job on this key re-converges instead of recomputing.
			pin.ds.storeWarm(wk, &warmEntry{version: pin.version, g: pin.g, values: res.Values, psi: res.Psi})
		}
		return out, nil
	}
}
