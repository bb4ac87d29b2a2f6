package jobs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// maxSpecBytes bounds a POST /jobs body; specs are small JSON documents.
const maxSpecBytes = 1 << 20

// Handler returns the control plane's HTTP/JSON API, designed to be
// mounted at /jobs/ on the export server:
//
//	POST   /jobs              submit a JobSpec, 201 + status
//	GET    /jobs              list all jobs (submission order)
//	GET    /jobs/{id}         one job's status
//	GET    /jobs/{id}/events  the lifecycle log so far, a JSON array
//	GET    /jobs/{id}/result  the final grid (409 until DONE)
//	DELETE /jobs/{id}         cancel
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/jobs/", s.handleJob)
	return mux
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		s.handleSubmit(w, r)
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.List())
	default:
		httpError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSpecBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: %v", err)
		return
	}
	if len(body) > maxSpecBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "spec exceeds %d bytes", maxSpecBytes)
		return
	}
	sp, err := ParseSpec(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	j, err := s.Submit(sp)
	if err != nil { // ErrClosed
		httpError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, j.Status())
}

// handleJob routes /jobs/{id}[/events|/result].
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/jobs/")
	id, sub, _ := strings.Cut(rest, "/")
	j := s.Get(id)
	if j == nil {
		httpError(w, http.StatusNotFound, "unknown job %q", id)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, j.Status())
	case sub == "" && r.Method == http.MethodDelete:
		s.handleCancel(w, j)
	case sub == "events" && r.Method == http.MethodGet:
		writeJSON(w, http.StatusOK, j.Events())
	case sub == "result" && r.Method == http.MethodGet:
		s.handleResult(w, j)
	default:
		httpError(w, http.StatusNotFound, "no route %s /jobs/%s/%s", r.Method, id, sub)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, j *Job) {
	changed, err := s.Cancel(j.ID)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if !changed {
		httpError(w, http.StatusConflict, "job %s already %s", j.ID, j.State())
		return
	}
	writeJSON(w, http.StatusOK, j.Status())
}

func (s *Server) handleResult(w http.ResponseWriter, j *Job) {
	res := j.Result()
	if res == nil {
		httpError(w, http.StatusConflict, "job %s is %s; the result exists once it is DONE", j.ID, j.State())
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error string `json:"error"`
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client gone: nothing useful to do
}
