package srv

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strings"

	"repro/internal/par"
	"repro/internal/runctl"
)

// maxBodyBytes bounds request bodies; the largest legitimate input is a
// full .bench netlist, comfortably under this.
const maxBodyBytes = 16 << 20

// The request/work types, their builders and the table of served kinds
// live in work.go, so journal replay rebuilds jobs through the same code
// path the handlers use. The handlers here are pure HTTP plumbing:
// decode, build, dispatch.

// handleSubmit serves POST /v1/<kind> for one served workload kind.
func (s *Server) handleSubmit(k workKind) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req := k.newReq()
		if !decode(w, r, req) {
			return
		}
		wk, async, err := k.build(s, req)
		if err != nil {
			badRequest(w, "%v", err)
			return
		}
		wk.client = clientID(r)
		s.dispatch(w, r, wk, async)
	}
}

// clientID buckets a request for fair dequeue: the X-API-Key header when
// the client sends one, else the remote host. Anonymous loopback clients
// all share one bucket, which is exactly the fairness unit we want there.
func clientID(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// --- GET /v1/jobs/{id}, /healthz, /metricsz ------------------------------

// jobStatus is the /v1/jobs/{id} response.
type jobStatus struct {
	Job       string          `json:"job"`
	Kind      string          `json:"kind"`
	Status    string          `json:"status"`
	Trace     string          `json:"trace,omitempty"` // deterministic trace ID (see obs.NewTrace)
	Events    string          `json:"events,omitempty"`
	Cache     string          `json:"cache,omitempty"` // "hit" when served from the store
	Coalesced int64           `json:"coalesced,omitempty"`
	Error     string          `json:"error,omitempty"`
	Result    json.RawMessage `json:"result,omitempty"`
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j := s.lookup(r.PathValue("id"))
	if j == nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown job"})
		return
	}
	state, result, err, cached, coalesced := j.snapshot()
	st := jobStatus{
		Job: j.id, Kind: j.kind, Status: state.String(),
		Trace: j.tc.Trace, Events: "/v1/jobs/" + j.id + "/events",
		Coalesced: coalesced,
	}
	if cached {
		st.Cache = "hit"
	}
	if err != nil {
		st.Error = err.Error()
	}
	if state == stateDone {
		st.Result = json.RawMessage(result)
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	version := s.cfg.Version
	if version == "" {
		version = "dev"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":       !s.Draining(),
		"queued":   s.Queued(),
		"busy":     s.Busy(),
		"workers":  par.Workers(s.cfg.Workers),
		"draining": s.Draining(),
		"version":  version,
		"go":       runtime.Version(),
	})
}

// handleMetricsz serves the snapshot as JSON by default, or in the
// Prometheus text exposition format when asked — either explicitly
// (?format=prometheus) or via content negotiation (Accept: text/plain,
// what a Prometheus scraper sends).
func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	snap := s.col.Metrics().Snapshot()
	if r.URL.Query().Get("format") == "prometheus" ||
		strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		snap.WritePrometheus(w, "repro")
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// --- dispatch machinery --------------------------------------------------

// dispatch submits the work and writes the response: the artifact bytes
// verbatim on the synchronous path (with X-Cache and X-Job headers), or a
// 202 + job id on the asynchronous one. A warm store hit never queues.
// Admission failures (queue full, draining, injected faults) are 503s
// carrying a Retry-After computed from the live queue-wait distribution.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, wk work, async bool) {
	j, cachedArtifact, err := s.submit(wk)
	if err != nil {
		sec := s.retryAfter()
		w.Header().Set("Retry-After", fmt.Sprintf("%d", sec))
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{
			"error":           err.Error(),
			"retry_after_sec": sec,
		})
		return
	}
	if cachedArtifact != nil {
		writeArtifact(w, cachedArtifact, true, "")
		return
	}
	if async {
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJSON(w, http.StatusAccepted, map[string]string{
			"job": j.id, "status": "queued",
			"trace":  j.tc.Trace,
			"events": "/v1/jobs/" + j.id + "/events",
		})
		return
	}
	select {
	case <-j.done:
	case <-r.Context().Done():
		// The client went away; the job keeps running so its result still
		// lands in the store for the next request.
		return
	}
	_, result, jerr, cached, _ := j.snapshot()
	if jerr != nil {
		code := http.StatusInternalServerError
		if runctl.IsCancel(jerr) {
			code = http.StatusGatewayTimeout
		}
		writeJSON(w, code, map[string]string{"error": jerr.Error(), "job": j.id})
		return
	}
	writeArtifact(w, result, cached, j.id)
}

// writeArtifact serves stored/computed artifact bytes verbatim — the
// warm-equals-cold bit-identity guarantee lives on this verbatim write.
func writeArtifact(w http.ResponseWriter, data []byte, cached bool, jobID string) {
	w.Header().Set("Content-Type", "application/json")
	if cached {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	if jobID != "" {
		w.Header().Set("X-Job", jobID)
	}
	w.WriteHeader(http.StatusOK)
	w.Write(data)
}

// decode reads a JSON body into dst, rejecting oversized or malformed
// requests with a 400.
func decode(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	if err := dec.Decode(dst); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			writeJSON(w, http.StatusRequestEntityTooLarge, map[string]string{"error": "request body too large"})
			return false
		}
		badRequest(w, "malformed request: %v", err)
		return false
	}
	return true
}

func badRequest(w http.ResponseWriter, format string, args ...any) {
	writeJSON(w, http.StatusBadRequest, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	w.Write(append(b, '\n'))
}
