package export

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"

	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
)

// HealthReport is the /healthz response body.
type HealthReport struct {
	// Status is "ok", "degraded" (alerts are active but the run advances)
	// or "stalled" (no step progress within StaleAfter; the only status
	// served with HTTP 503).
	Status string `json:"status"`
	// Step is the simulation's current step (the sim_step gauge).
	Step int `json:"step"`
	// SecondsSinceAdvance is how long ago the step counter last moved,
	// as observed across /healthz and /metrics requests.
	SecondsSinceAdvance float64 `json:"seconds_since_advance"`
	// AlertsActive / AlertsCritical count currently-firing alerts when an
	// alert engine is attached; any active alert degrades the status.
	AlertsActive   int `json:"alerts_active,omitempty"`
	AlertsCritical int `json:"alerts_critical,omitempty"`
}

// Server serves one observer's telemetry over HTTP:
//
//	/metrics        Prometheus text exposition of the registry
//	/snapshot.json  the full run snapshot (metrics + predictor series)
//	/healthz        step liveness and active alerts (503 when stalled)
//	/alerts         the alert engine's rules, active alerts and firing log,
//	                only when the server has an engine
//	/debug/pprof/   the standard Go profiling handlers
//
// Every endpoint reads point-in-time snapshots, so scraping mid-step is
// safe: the kernel hot path is never blocked beyond the registry's
// snapshot lock. The zero Server serves empty documents.
type Server struct {
	// Obs is the observer being served; nil serves empty snapshots.
	Obs *obs.Observer
	// Alerts optionally serves /alerts and folds active alerts into the
	// /healthz status. Without an engine /alerts answers 404: a server
	// reports no alerts it does not evaluate. Set it before the first
	// Handler, Mount or Start call, which build the route table.
	Alerts *alert.Engine
	// StaleAfter is the step-liveness window: when > 0 and the step
	// counter has not advanced for longer, /healthz reports "stalled"
	// with HTTP 503. 0 disables the stall check (the probe still reports
	// seconds_since_advance).
	StaleAfter time.Duration

	// now stubs the clock in tests; nil means time.Now.
	now func() time.Time

	mu       sync.Mutex
	seen     bool
	lastStep float64
	lastMove time.Time

	// muxOnce guards mux: each Server owns exactly one ServeMux (never the
	// process-global http.DefaultServeMux), so parallel servers in one
	// process — two tests, or a test and a live run — cannot collide on
	// route registration, and extra routes Mounted before or after Start
	// land on the same table Start serves.
	muxOnce sync.Once
	mux     *http.ServeMux
}

// initMux builds the server's route table exactly once.
func (s *Server) initMux() {
	s.muxOnce.Do(func() {
		mux := http.NewServeMux()
		mux.HandleFunc("/metrics", s.handleMetrics)
		mux.HandleFunc("/snapshot.json", s.handleSnapshot)
		mux.HandleFunc("/healthz", s.handleHealthz)
		if s.Alerts != nil {
			mux.HandleFunc("/alerts", s.handleAlerts)
		}
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.HandleFunc("/", s.handleIndex)
		s.mux = mux
	})
}

// Handler returns the server's route table. Repeated calls return the
// same mux, the one Start serves.
func (s *Server) Handler() http.Handler {
	s.initMux()
	return s.mux
}

// Mount registers an extra handler (e.g. the jobs control-plane API) on
// the server's mux. Mounting the same pattern twice panics, as ServeMux
// does. Safe before or after Start, but not concurrently with requests
// already hitting the pattern space being modified.
func (s *Server) Mount(pattern string, h http.Handler) {
	s.initMux()
	s.mux.Handle(pattern, h)
}

// Start listens on addr and serves in a background goroutine, returning
// the bound address (useful with ":0") and a shutdown handle. A terminal
// Serve error (other than the http.ErrServerClosed a clean shutdown
// returns) shows up as an export_serve_errors_total counter, so a scraper
// that suddenly loses the endpoint has a trail.
func (s *Server) Start(addr string) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	hs := &http.Server{
		Handler: s.Handler(),
		// Slow-loris guard: the exposition endpoints never need more than
		// a moment to read a scrape request's headers.
		ReadHeaderTimeout: 5 * time.Second,
	}
	go func() {
		if err := hs.Serve(ln); err != nil && err != http.ErrServerClosed {
			s.reportServeError()
		}
	}()
	return hs, ln.Addr(), nil
}

// reportServeError counts a background listener failure on the registry.
func (s *Server) reportServeError() {
	if s.Obs != nil && s.Obs.Reg != nil {
		s.Obs.Reg.Counter("export_serve_errors_total").Inc()
	}
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	alerts := ""
	if s.Alerts != nil {
		alerts = "/alerts\n"
	}
	fmt.Fprintf(w, "beamdyn telemetry\n\n/metrics\n/snapshot.json\n/healthz\n%s/debug/pprof/\n", alerts)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var snap obs.Snapshot
	if s.Obs != nil {
		snap = s.Obs.Reg.Snapshot()
	}
	s.observeStep(snap)
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w, snap)
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	// The zero-server contract holds here too: with no observer attached
	// this serves the empty RunSnapshot document rather than failing the
	// request, so probes configured before the run wires telemetry still
	// get well-formed JSON.
	var o *obs.Observer
	if s != nil {
		o = s.Obs
	}
	if err := o.WriteSnapshot(w); err != nil {
		// Headers are gone; all we can do is cut the connection short.
		return
	}
}

func (s *Server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Alerts.Status())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	var snap obs.Snapshot
	if s.Obs != nil {
		snap = s.Obs.Reg.Snapshot()
	}
	step, since := s.observeStep(snap)
	rep := HealthReport{
		Status:              "ok",
		Step:                int(step),
		SecondsSinceAdvance: since.Seconds(),
	}
	if total, crit := s.Alerts.ActiveCount(); total > 0 {
		rep.Status = "degraded"
		rep.AlertsActive = total
		rep.AlertsCritical = crit
	}
	code := http.StatusOK
	if s.StaleAfter > 0 && since > s.StaleAfter {
		rep.Status = "stalled"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(rep)
}

// observeStep tracks movement of the sim_step gauge across requests and
// returns the current step plus the time since it last changed. The
// clock only advances when something probes the server, which is exactly
// the liveness contract: a scraper that polls sees staleness; a run with
// no scraper pays nothing.
func (s *Server) observeStep(snap obs.Snapshot) (float64, time.Duration) {
	var step float64
	for _, g := range snap.Gauges {
		if g.Name == "sim_step" {
			step = g.Value
			break
		}
	}
	now := time.Now
	if s.now != nil {
		now = s.now
	}
	t := now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.seen || step != s.lastStep {
		s.seen = true
		s.lastStep = step
		s.lastMove = t
	}
	return step, t.Sub(s.lastMove)
}
