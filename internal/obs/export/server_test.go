package export

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"beamdyn/internal/obs"
	"beamdyn/internal/obs/alert"
)

func testServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestMetricsEndpoint(t *testing.T) {
	o := obs.New()
	o.Reg.Counter("sim_steps_total").Add(3)
	o.Reg.Gauge("sim_step").Set(3)
	ts := testServer(t, &Server{Obs: o})

	code, body, hdr := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content-type = %q, want exposition format", ct)
	}
	if !strings.Contains(body, "sim_steps_total 3") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	lintPrometheus(t, body)
}

func TestMetricsScrapeMidStepIsSafe(t *testing.T) {
	// Hammer the registry from writer goroutines while scraping: the
	// race detector (make race) certifies the mid-step contract.
	o := obs.New()
	ts := testServer(t, &Server{Obs: o})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := o.Reg.Counter("sim_steps_total")
			h := o.Reg.Histogram("stage_seconds", obs.StageSecondsBuckets, obs.Label{Key: "stage", Value: "advance"})
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(float64(i%100) * 1e-4)
					o.Reg.Gauge("sim_step").Set(float64(i))
				}
			}
		}(w)
	}
	for i := 0; i < 10; i++ {
		code, body, _ := get(t, ts.URL+"/metrics")
		if code != http.StatusOK {
			t.Fatalf("scrape %d: status %d", i, code)
		}
		lintPrometheus(t, body)
	}
	close(stop)
	wg.Wait()
}

func TestSnapshotEndpoint(t *testing.T) {
	o := obs.New()
	o.Reg.Counter("sim_steps_total").Add(5)
	o.RecordPredictor(obs.StepSample{Step: 4, Kernel: "Predictive-RP", FallbackEntries: 2, FallbackRate: 0.125}, []float64{0.1, 0.4})
	ts := testServer(t, &Server{Obs: o})

	code, body, hdr := get(t, ts.URL+"/snapshot.json")
	if code != http.StatusOK {
		t.Fatalf("GET /snapshot.json = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content-type = %q", ct)
	}
	var rs obs.RunSnapshot
	if err := json.Unmarshal([]byte(body), &rs); err != nil {
		t.Fatalf("snapshot not valid JSON: %v", err)
	}
	if len(rs.Metrics.Counters) == 0 || len(rs.Metrics.Histograms) != 1 {
		t.Fatalf("snapshot content wrong: %+v", rs)
	}
	var rate float64
	for _, g := range rs.Metrics.Gauges {
		if g.Name == "predictor_fallback_rate" {
			rate = g.Value
		}
	}
	if rate != 0.125 {
		t.Errorf("predictor_fallback_rate = %g, want 0.125", rate)
	}
	if h := rs.Metrics.Histograms[0]; h.Name != "predictor_forecast_error" || h.Count != 2 {
		t.Errorf("forecast error series: %+v", h)
	}
}

func TestHealthzLiveness(t *testing.T) {
	o := obs.New()
	o.Reg.Gauge("sim_step").Set(1)
	clock := time.Unix(1000, 0)
	s := &Server{Obs: o, StaleAfter: 10 * time.Second,
		now: func() time.Time { return clock }}
	ts := testServer(t, s)

	code, body, _ := get(t, ts.URL+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("initial healthz = %d: %s", code, body)
	}
	var rep HealthReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "ok" || rep.Step != 1 {
		t.Fatalf("report = %+v", rep)
	}

	// Step advances, clock jumps past the window: still live, because
	// the movement resets the timer.
	clock = clock.Add(30 * time.Second)
	o.Reg.Gauge("sim_step").Set(2)
	if code, _, _ = get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("advancing run reported dead: %d", code)
	}

	// No movement past the window: stalled, 503.
	clock = clock.Add(11 * time.Second)
	code, body, _ = get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("stalled run healthz = %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "stalled" || rep.SecondsSinceAdvance < 11 {
		t.Fatalf("stalled report = %+v", rep)
	}

	// Progress revives it.
	o.Reg.Gauge("sim_step").Set(3)
	if code, _, _ = get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("revived run still dead: %d", code)
	}
}

func TestSnapshotEndpointNilObserver(t *testing.T) {
	// Regression: a server probed before the run wires its observer must
	// serve the empty RunSnapshot document, not fail the request.
	ts := testServer(t, &Server{})
	code, body, hdr := get(t, ts.URL+"/snapshot.json")
	if code != http.StatusOK {
		t.Fatalf("GET /snapshot.json with nil Obs = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content-type = %q", ct)
	}
	var rs obs.RunSnapshot
	if err := json.Unmarshal([]byte(body), &rs); err != nil {
		t.Fatalf("empty snapshot not valid JSON: %v\n%s", err, body)
	}
	if len(rs.Metrics.Counters) != 0 || len(rs.Metrics.Histograms) != 0 {
		t.Fatalf("empty snapshot carries data: %+v", rs)
	}
}

func TestHealthzStalledWinsOverDegraded(t *testing.T) {
	// Precedence: a stall is strictly worse than degradation — a stalled
	// run with an active alert must report "stalled" (503), not
	// "degraded".
	o := obs.New()
	o.Reg.Gauge("sim_step").Set(1)
	rules, err := alert.ParseRules("steptime>1")
	if err != nil {
		t.Fatal(err)
	}
	eng := alert.NewEngine(alert.Config{Rules: rules, Obs: o})
	eng.Eval(alert.Input{Step: 1, StepSeconds: 2})
	clock := time.Unix(1000, 0)
	s := &Server{Obs: o, Alerts: eng, StaleAfter: 10 * time.Second,
		now: func() time.Time { return clock }}
	ts := testServer(t, s)

	// First probe: degraded (alert active, step fresh).
	_, body, _ := get(t, ts.URL+"/healthz")
	var rep HealthReport
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "degraded" {
		t.Fatalf("fresh probe status = %q, want degraded", rep.Status)
	}

	// Step counter frozen past the window: stalled wins.
	clock = clock.Add(11 * time.Second)
	code, body, _ := get(t, ts.URL+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("stalled+degraded healthz = %d: %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "stalled" {
		t.Fatalf("status = %q, want stalled to win over degraded", rep.Status)
	}
}

func TestAlertsEndpointAndDegradedStatus(t *testing.T) {
	o := obs.New()
	rules, err := alert.ParseRules("fallback_rate>0")
	if err != nil {
		t.Fatal(err)
	}
	eng := alert.NewEngine(alert.Config{Rules: rules, Obs: o})
	ts := testServer(t, &Server{Obs: o, Alerts: eng})

	// No alerts yet: /alerts lists the rules, /healthz is ok.
	_, body, hdr := get(t, ts.URL+"/alerts")
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("content-type = %q", ct)
	}
	var st alert.Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Rules) != 1 || st.Rules[0] != "fallback_rate>0" || len(st.Active) != 0 {
		t.Fatalf("quiet status = %+v", st)
	}
	if _, index, _ := get(t, ts.URL+"/"); !strings.Contains(index, "/alerts") {
		t.Errorf("index with an engine lacks /alerts:\n%s", index)
	}
	_, body, _ = get(t, ts.URL+"/healthz")
	var rep HealthReport
	json.Unmarshal([]byte(body), &rep)
	if rep.Status != "ok" {
		t.Fatalf("quiet healthz status = %q", rep.Status)
	}

	// Fire an alert: /alerts shows it active, /healthz degrades (200).
	eng.Eval(alert.Input{Step: 7, HasPredictor: true, FallbackRate: 0.5})
	code, body, _ := get(t, ts.URL+"/alerts")
	if code != http.StatusOK {
		t.Fatalf("GET /alerts = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Active) != 1 || st.Active[0].Rule != "fallback_rate>0" || st.Active[0].Step != 7 {
		t.Fatalf("firing status = %+v", st)
	}
	code, body, _ = get(t, ts.URL+"/healthz")
	if err := json.Unmarshal([]byte(body), &rep); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusOK || rep.Status != "degraded" || rep.AlertsActive != 1 || rep.AlertsCritical != 1 {
		t.Fatalf("firing healthz = %d %+v", code, rep)
	}

	// Resolution clears it (fresh struct: omitted zero fields must not
	// inherit the previous decode's values).
	eng.Eval(alert.Input{Step: 8, HasPredictor: true, FallbackRate: 0})
	_, body, _ = get(t, ts.URL+"/healthz")
	var resolved HealthReport
	if err := json.Unmarshal([]byte(body), &resolved); err != nil {
		t.Fatal(err)
	}
	if resolved.Status != "ok" || resolved.AlertsActive != 0 {
		t.Fatalf("resolved healthz = %+v", resolved)
	}
}

// TestServerWithoutEngineHasNoAlerts: a server with no alert engine (beamsim
// serve, or a run without -alerts) answers 404 on /alerts and leaves it
// off the index, rather than serve an always-empty document.
func TestServerWithoutEngineHasNoAlerts(t *testing.T) {
	ts := testServer(t, &Server{Obs: obs.New()})
	if code, body, _ := get(t, ts.URL+"/alerts"); code != http.StatusNotFound {
		t.Fatalf("/alerts without an engine = %d, want 404: %s", code, body)
	}
	if code, body, _ := get(t, ts.URL+"/"); code != http.StatusOK || strings.Contains(body, "/alerts") || !strings.Contains(body, "/healthz") {
		t.Fatalf("index without an engine: code=%d\n%s", code, body)
	}
}

func TestReportServeError(t *testing.T) {
	// A listener error is counted on the registry, so it is at least
	// visible in snapshots and on /metrics.
	o := obs.New()
	s := &Server{Obs: o}
	s.reportServeError()
	if c := o.Reg.Counter("export_serve_errors_total"); c.Value() != 1 {
		t.Fatalf("export_serve_errors_total = %d, want 1", c.Value())
	}
}

func TestStartSetsReadHeaderTimeout(t *testing.T) {
	s := &Server{Obs: obs.New()}
	hs, _, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	if hs.ReadHeaderTimeout <= 0 {
		t.Fatal("Start left ReadHeaderTimeout unset (slow-loris guard missing)")
	}
}

func TestPprofMounted(t *testing.T) {
	ts := testServer(t, &Server{Obs: obs.New()})
	code, body, _ := get(t, ts.URL+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Fatalf("pprof index: code=%d", code)
	}
}

func TestZeroServerServesEmptyDocuments(t *testing.T) {
	ts := testServer(t, &Server{})
	if code, body, _ := get(t, ts.URL+"/metrics"); code != http.StatusOK || body != "" {
		t.Fatalf("empty /metrics: code=%d body=%q", code, body)
	}
	if code, _, _ := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("empty /healthz: code=%d", code)
	}
}

func TestHandlerReturnsOwnedMux(t *testing.T) {
	// The server owns exactly one mux: repeated Handler calls return it,
	// and routes Mounted before or after the first Handler call land on it.
	s := &Server{Obs: obs.New()}
	if s.Handler() != s.Handler() {
		t.Fatal("Handler built a fresh mux per call; Mounted routes would be lost")
	}
	s.Mount("/extra", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "extra")
	}))
	ts := testServer(t, s)
	if code, body, _ := get(t, ts.URL+"/extra"); code != http.StatusOK || body != "extra" {
		t.Fatalf("mounted route: code=%d body=%q", code, body)
	}
	if code, _, _ := get(t, ts.URL+"/metrics"); code != http.StatusOK {
		t.Fatalf("built-in route lost after Mount: %d", code)
	}
}

func TestParallelServersDoNotCollide(t *testing.T) {
	// Two servers in one process, each with its own observer and its own
	// mounted route: registrations must not leak across servers the way
	// they would on the process-global default mux.
	t.Parallel()
	mk := func(name string, steps float64) (*Server, *httptest.Server) {
		o := obs.New()
		o.Reg.Gauge("sim_step").Set(steps)
		s := &Server{Obs: o}
		s.Mount("/who", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, name)
		}))
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		return s, ts
	}
	_, tsA := mk("alpha", 1)
	_, tsB := mk("beta", 2)

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			url, want, step := tsA.URL, "alpha", "sim_step 1"
			if i%2 == 1 {
				url, want, step = tsB.URL, "beta", "sim_step 2"
			}
			resp, err := http.Get(url + "/who")
			if err != nil {
				t.Error(err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if string(body) != want {
				t.Errorf("GET %s/who = %q, want %q (mux shared across servers?)", url, body, want)
			}
			resp, err = http.Get(url + "/metrics")
			if err != nil {
				t.Error(err)
				return
			}
			body, _ = io.ReadAll(resp.Body)
			resp.Body.Close()
			if !strings.Contains(string(body), step) {
				t.Errorf("GET %s/metrics lacks %q (observer shared across servers?)", url, step)
			}
		}(i)
	}
	wg.Wait()
}

func TestStartBindsEphemeralPort(t *testing.T) {
	s := &Server{Obs: obs.New()}
	hs, addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer hs.Close()
	code, _, _ := get(t, "http://"+addr.String()+"/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz over Start = %d", code)
	}
}
