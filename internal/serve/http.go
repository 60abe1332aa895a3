package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"argan/internal/graph"
	"argan/internal/obs"
	obsserve "argan/internal/obs/serve"
)

// HTTP job API, mounted on the telemetry plane's hardened server (header
// timeouts, bounded request bodies — see internal/obs/serve):
//
//	POST   /api/jobs             submit a JobSpec     → 202 {"id": "job-N"}
//	GET    /api/jobs             list all jobs        → 200 [JobStatus...]
//	GET    /api/jobs/{id}        one job's status     → 200 JobStatus
//	GET    /api/jobs/{id}/result finished job result  → 200 JobResult
//	POST   /api/jobs/{id}/cancel cancel a job         → 200 JobStatus
//	DELETE /api/jobs/{id}        cancel a job         → 200 JobStatus
//	GET    /api/service          service Stats        → 200 Stats
//	GET    /api/datasets         materialized datasets → 200 [DatasetInfo...]
//	POST   /api/datasets/{name}/mutate apply an edge batch → 200 MutateResult
//
// Admission maps onto status codes: a saturated queue sheds with 429 and a
// draining service refuses with 503, both as {"error": "..."} JSON. Unknown
// jobs are 404, malformed specs and batches 400, and a mutation whose
// expect_version no longer matches fails with 412 Precondition Failed
// (mapped back to graph.ErrVersionMismatch client-side).

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// APIHandler returns the job API as a stand-alone handler (also usable
// without the telemetry plane, e.g. in tests).
func (s *Service) APIHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.List())
	})
	mux.HandleFunc("GET /api/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})
	mux.HandleFunc("GET /api/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		res, err := s.Result(r.PathValue("id"))
		switch {
		case err == nil:
			writeJSON(w, http.StatusOK, res)
		case errors.Is(err, ErrNotFinished):
			writeErr(w, http.StatusConflict, err)
		case errors.Is(err, ErrNoSuchJob):
			writeErr(w, http.StatusNotFound, err)
		default:
			// Terminal without a result: failed or canceled — the error
			// carries the quarantine reason.
			writeErr(w, http.StatusGone, err)
		}
	})
	cancel := func(w http.ResponseWriter, r *http.Request) {
		id := r.PathValue("id")
		if err := s.Cancel(id); err != nil {
			writeErr(w, http.StatusNotFound, err)
			return
		}
		st, _ := s.Status(id)
		writeJSON(w, http.StatusOK, st)
	}
	mux.HandleFunc("POST /api/jobs/{id}/cancel", cancel)
	mux.HandleFunc("DELETE /api/jobs/{id}", cancel)
	mux.HandleFunc("GET /api/service", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Stats())
	})
	mux.HandleFunc("GET /api/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Datasets())
	})
	mux.HandleFunc("POST /api/datasets/{name}/mutate", s.handleMutate)
	return mux
}

func (s *Service) handleMutate(w http.ResponseWriter, r *http.Request) {
	var req MutateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode mutation batch: %w", err))
		return
	}
	res, err := s.Mutate(r.PathValue("name"), req)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, res)
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, graph.ErrVersionMismatch):
		writeErr(w, http.StatusPreconditionFailed, err)
	default:
		// Bad batch: absent delete target, out-of-range endpoint, unknown
		// dataset — all client errors.
		writeErr(w, http.StatusBadRequest, err)
	}
}

func (s *Service) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode job spec: %w", err))
		return
	}
	id, err := s.Submit(spec)
	switch {
	case err == nil:
		writeJSON(w, http.StatusAccepted, map[string]string{"id": id})
	case errors.Is(err, ErrDraining):
		writeErr(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrSaturated):
		writeErr(w, http.StatusTooManyRequests, err)
	default:
		writeErr(w, http.StatusBadRequest, err)
	}
}

// Attach mounts the job API on a telemetry server, registers the service
// and per-job metric families, and points /healthz & /readyz at the
// service's aggregate health (draining ⇒ not ready).
func (s *Service) Attach(srv *obsserve.Server) error {
	if err := srv.Mount("/api/", s.APIHandler()); err != nil {
		return err
	}
	if err := s.registerMetrics(srv); err != nil {
		return err
	}
	srv.SetHealth(s.healthFn())
	return nil
}

// healthFn aggregates per-job health into the telemetry plane's Health:
// the service is "running" while any job is, ready while idle (Attach comes
// after Open and the preloads), and stops being ready the moment a drain
// starts.
func (s *Service) healthFn() func() obs.Health {
	return func() obs.Health {
		s.mu.Lock()
		defer s.mu.Unlock()
		h := obs.Health{
			Running:   s.running > 0,
			Resident:  true,
			Draining:  s.draining,
			Completed: s.completed,
			Failed:    s.failed + s.canceled,
			Workers:   s.cfg.Cores,
			Idle:      s.coresFree,
		}
		for _, id := range s.order {
			j := s.jobs[id]
			if j.state != StateRunning {
				continue
			}
			jh := j.health.Health()
			h.Dead += jh.Dead
			h.Updates += jh.Updates
			h.Sent += jh.Sent
			h.Recv += jh.Recv
			if jh.Unrecoverable {
				h.Unrecoverable = true
			}
			if jh.ProgressAge > h.ProgressAge {
				h.ProgressAge = jh.ProgressAge
			}
		}
		return h
	}
}

// Client is a typed client for the job API. Retries > 0 makes it tolerant
// of transient connection failures (a service mid-restart, a listener not
// yet bound): failed requests are retried with doubling, capped backoff.
// Retry is idempotency-aware — GETs retry on any transport error, but a
// POST is retried only when the error proves the request never reached the
// service (a dial-phase failure). A POST that died after the connection was
// established is never replayed: the service may have applied it, and
// replaying a mutation or submission would double it.
type Client struct {
	Base string // e.g. "http://127.0.0.1:9090"
	HTTP *http.Client
	// Retries is how many additional attempts a transiently failed request
	// gets (0 = fail on the first error).
	Retries int
	// Backoff is the delay before the first retry, doubling per attempt and
	// capped at 5s. <= 0 defaults to 250ms.
	Backoff time.Duration
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// maxBackoff caps the doubling retry delay.
const maxBackoff = 5 * time.Second

// neverSent reports that a request provably never reached the server: the
// transport failed in the dial phase, before any bytes were written. Only
// such failures make a non-idempotent request safe to retry.
func neverSent(err error) bool {
	var opErr *net.OpError
	return errors.As(err, &opErr) && opErr.Op == "dial"
}

// doRetry runs one request attempt function under the client's retry
// policy. Once a response has been received (err == nil) there are no
// retries at this layer, whatever its status code — decode() maps service
// refusals to typed errors and the caller decides.
func (c *Client) doRetry(attempt func() (*http.Response, error), idempotent bool) (*http.Response, error) {
	backoff := c.Backoff
	if backoff <= 0 {
		backoff = 250 * time.Millisecond
	}
	for try := 0; ; try++ {
		resp, err := attempt()
		if err == nil || try >= c.Retries || (!idempotent && !neverSent(err)) {
			return resp, err
		}
		time.Sleep(backoff)
		if backoff *= 2; backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// get issues an idempotent GET under the retry policy.
func (c *Client) get(path string) (*http.Response, error) {
	return c.doRetry(func() (*http.Response, error) {
		return c.client().Get(c.Base + path)
	}, true)
}

// post issues a POST under the retry policy. The body reader is rebuilt per
// attempt, and only dial-phase failures are retried (see neverSent).
func (c *Client) post(path string, body []byte) (*http.Response, error) {
	return c.doRetry(func() (*http.Response, error) {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		return c.client().Post(c.Base+path, "application/json", rd)
	}, false)
}

// decode reads a JSON response, mapping admission status codes back onto
// the service's sentinel errors so clients can errors.Is them.
func decode[T any](resp *http.Response, out *T) error {
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		var ae apiError
		_ = json.NewDecoder(resp.Body).Decode(&ae)
		msg := ae.Error
		if msg == "" {
			msg = resp.Status
		}
		switch resp.StatusCode {
		case http.StatusTooManyRequests:
			return fmt.Errorf("%w: %s", ErrSaturated, msg)
		case http.StatusServiceUnavailable:
			return fmt.Errorf("%w: %s", ErrDraining, msg)
		case http.StatusConflict:
			return fmt.Errorf("%w: %s", ErrNotFinished, msg)
		case http.StatusNotFound:
			return fmt.Errorf("%w: %s", ErrNoSuchJob, msg)
		case http.StatusPreconditionFailed:
			return fmt.Errorf("%w: %s", graph.ErrVersionMismatch, msg)
		}
		return fmt.Errorf("http %d: %s", resp.StatusCode, msg)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit posts a JobSpec and returns the assigned job ID. Saturation and
// drain refusals come back as ErrSaturated / ErrDraining.
func (c *Client) Submit(spec JobSpec) (string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := c.post("/api/jobs", body)
	if err != nil {
		return "", err
	}
	var out map[string]string
	if err := decode(resp, &out); err != nil {
		return "", err
	}
	return out["id"], nil
}

// Status fetches one job's status.
func (c *Client) Status(id string) (JobStatus, error) {
	var st JobStatus
	resp, err := c.get("/api/jobs/" + id)
	if err != nil {
		return st, err
	}
	return st, decode(resp, &st)
}

// List fetches every job.
func (c *Client) List() ([]JobStatus, error) {
	var sts []JobStatus
	resp, err := c.get("/api/jobs")
	if err != nil {
		return nil, err
	}
	return sts, decode(resp, &sts)
}

// Result fetches a finished job's summary. A job still pending/running
// returns ErrNotFinished.
func (c *Client) Result(id string) (*JobResult, error) {
	resp, err := c.get("/api/jobs/" + id + "/result")
	if err != nil {
		return nil, err
	}
	var res JobResult
	if err := decode(resp, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Cancel cancels a job. Cancellation is idempotent server-side (canceling
// a finished job is a no-op), but the POST still follows the conservative
// dial-only retry rule; callers wanting at-most-once semantics get them.
func (c *Client) Cancel(id string) error {
	resp, err := c.post("/api/jobs/"+id+"/cancel", nil)
	if err != nil {
		return err
	}
	var st JobStatus
	return decode(resp, &st)
}

// Stats fetches the service counters.
func (c *Client) Stats() (Stats, error) {
	var st Stats
	resp, err := c.get("/api/service")
	if err != nil {
		return st, err
	}
	return st, decode(resp, &st)
}

// Mutate posts one edge-mutation batch against a dataset. A stale
// expect_version comes back as graph.ErrVersionMismatch; a draining
// service as ErrDraining.
func (c *Client) Mutate(dataset string, req MutateRequest) (*MutateResult, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	resp, err := c.post("/api/datasets/"+dataset+"/mutate", body)
	if err != nil {
		return nil, err
	}
	var res MutateResult
	if err := decode(resp, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Datasets fetches the materialized datasets and their current versions.
func (c *Client) Datasets() ([]DatasetInfo, error) {
	var infos []DatasetInfo
	resp, err := c.get("/api/datasets")
	if err != nil {
		return nil, err
	}
	return infos, decode(resp, &infos)
}

// WaitTerminal polls until the job reaches a terminal state or the timeout
// lapses, returning the final status. The poll interval starts at 1 ms and
// doubles up to 20 ms, so a job is reported at most about its own run time
// late, and a long one costs five polls more than a fixed 20 ms would.
func (c *Client) WaitTerminal(id string, timeout time.Duration) (JobStatus, error) {
	deadline := time.Now().Add(timeout)
	for wait := time.Millisecond; ; wait = min(2*wait, 20*time.Millisecond) {
		st, err := c.Status(id)
		if err != nil {
			return st, err
		}
		switch st.State {
		case StateDone, StateFailed, StateCanceled:
			return st, nil
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s still %s after %v", id, st.State, timeout)
		}
		time.Sleep(wait)
	}
}
