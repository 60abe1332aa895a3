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
func runApp[V any](pin pinned, sp JobSpec, cfg gap.LiveConfig) func(*algorithms.App[V]) (*JobResult, error) {
	return func(app *algorithms.App[V]) (*JobResult, error) {
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

		res, lm, wrong, err := runChecked(app, pin.frags, q, cfg, want)
		if err != nil {
			return nil, err
		}
		out := &JobResult{
			Vertices:   len(res.Values),
			Wrong:      wrong,
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
		if out.Wrong <= 0 {
			// Retain this fixpoint (raw Ψ and output view, global-indexed) so
			// the next job on this key re-converges instead of recomputing.
			pin.ds.storeWarm(wk, &warmEntry{version: pin.version, g: pin.g, values: res.Values, psi: res.Psi})
		}
		return out, nil
	}
}

// runChecked is the one place a live app row runs under gap.RunLive: it runs
// the row's program over frags and, when want is not nil, counts the vertices
// whose values differ from that reference (-1 when there is none). Keeping it
// the only instantiating call keeps one compiled copy of the live driver in
// every binary that links this package.
func runChecked[V any](app *algorithms.App[V], frags []*graph.Fragment, q ace.Query, cfg gap.LiveConfig, want []V) (*gap.Result[V], *gap.LiveMetrics, int, error) {
	res, lm, err := gap.RunLive(frags, app.Factory, q, cfg)
	if err != nil {
		return nil, nil, 0, err
	}
	wrong := -1
	if want != nil {
		wrong = app.Wrong(res.Values, want)
	}
	return res, lm, wrong, nil
}

// LiveJob is one verified live run of an app row outside the service: one
// run under cfg, returning the driver metrics and the number of vertices
// that differ from the row's sequential reference. arganrun -soak and
// arganbench -exp memory drive the live apps through it.
type LiveJob func(cfg gap.LiveConfig) (*gap.LiveMetrics, int, error)

// LiveJobFor resolves a live application (algorithms.LiveAppNames) to a
// LiveJob over g's fragments, computing the sequential reference once.
func LiveJobFor(app string, g *graph.Graph, frags []*graph.Fragment, source int, eps float64) (LiveJob, error) {
	return algorithms.DispatchLive(app,
		liveJobOf[float64](g, frags, source, eps), liveJobOf[int32](g, frags, source, eps), liveJobOf[uint32](g, frags, source, eps))
}

func liveJobOf[V any](g *graph.Graph, frags []*graph.Fragment, source int, eps float64) func(*algorithms.App[V]) (LiveJob, error) {
	return func(app *algorithms.App[V]) (LiveJob, error) {
		if err := app.CheckSource(source, g.NumVertices()); err != nil {
			return nil, err
		}
		q := ace.Query{Source: graph.VID(source), Eps: eps}
		want := app.Ref(g, q)
		return func(cfg gap.LiveConfig) (*gap.LiveMetrics, int, error) {
			_, lm, wrong, err := runChecked(app, frags, q, cfg, want)
			return lm, wrong, err
		}, nil
	}
}
