package jobs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"beamdyn/internal/obs"
	"beamdyn/internal/obs/export"
)

// apiFixture mounts the jobs API onto an export server, the production
// topology of "beamsim serve".
func apiFixture(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New()
	}
	s := New(cfg)
	t.Cleanup(s.Close)
	exp := &export.Server{Obs: cfg.Obs}
	exp.Mount("/jobs", s.Handler())
	exp.Mount("/jobs/", s.Handler())
	ts := httptest.NewServer(exp.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postSpec(t *testing.T, url, spec string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/jobs", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

func TestHTTPWalkthrough(t *testing.T) {
	observer := obs.New()
	srv, ts := apiFixture(t, Config{Workers: 1, Obs: observer})

	// Submit.
	code, body := postSpec(t, ts.URL, minimalSpec())
	if code != http.StatusCreated {
		t.Fatalf("POST /jobs = %d: %s", code, body)
	}
	var st Status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State == StatePending {
		t.Fatalf("created status = %+v", st)
	}

	// List.
	code, body = getBody(t, ts.URL+"/jobs")
	if code != http.StatusOK {
		t.Fatalf("GET /jobs = %d", code)
	}
	var list []Status
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v", list)
	}

	// Events: once the job is DONE, the log is one JSON array holding
	// the whole lifecycle.
	waitDone(t, srv.Get(st.ID))
	code, body = getBody(t, ts.URL+"/jobs/"+st.ID+"/events")
	if code != http.StatusOK {
		t.Fatalf("GET /jobs/{id}/events = %d: %s", code, body)
	}
	var events []Event
	if err := json.Unmarshal([]byte(body), &events); err != nil {
		t.Fatalf("events are not a JSON array of events: %v", err)
	}
	var sawRunning, sawDone, sawProgress bool
	for _, ev := range events {
		switch {
		case ev.Type == "state" && ev.State == StateRunning:
			sawRunning = true
		case ev.Type == "state" && ev.State == StateDone:
			sawDone = true
		case ev.Type == "progress":
			sawProgress = true
		}
	}
	if !sawRunning || !sawDone || !sawProgress {
		t.Fatalf("event log incomplete: running=%t done=%t progress=%t", sawRunning, sawDone, sawProgress)
	}

	// Status: DONE.
	code, body = getBody(t, ts.URL+"/jobs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("GET /jobs/{id} = %d", code)
	}
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != StateDone || !st.HasResult {
		t.Fatalf("final status = %+v", st)
	}

	// Result.
	code, body = getBody(t, ts.URL+"/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("GET result = %d: %s", code, body)
	}
	var res Result
	if err := json.Unmarshal([]byte(body), &res); err != nil {
		t.Fatal(err)
	}
	if res.SHA256 == "" || len(res.Data) != res.NX*res.NY {
		t.Fatalf("result = step %d, sha %q, %d values", res.Step, res.SHA256, len(res.Data))
	}
	if res.SHA256 != GridDigest(res.NX, res.NY, res.Data) {
		t.Error("served digest does not match the served grid")
	}

	// Cancel after completion: 409.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+st.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Fatalf("DELETE after DONE = %d, want 409", dresp.StatusCode)
	}

	// The jobs metrics ride the same /metrics exposition as everything else.
	code, body = getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{"jobs_submitted_total", "jobs_completed_total", "jobs_queue_wait_seconds", "jobs_state"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics lacks %s", want)
		}
	}
}

func TestHTTPErrors(t *testing.T) {
	_, ts := apiFixture(t, Config{Workers: 1})

	if code, body := postSpec(t, ts.URL, `{"name": "x"}`); code != http.StatusBadRequest {
		t.Errorf("POST invalid spec = %d: %s", code, body)
	}
	if code, body := postSpec(t, ts.URL, `{not json`); code != http.StatusBadRequest {
		t.Errorf("POST garbage = %d: %s", code, body)
	}
	if code, _ := getBody(t, ts.URL+"/jobs/j-999999"); code != http.StatusNotFound {
		t.Errorf("GET unknown job = %d", code)
	}
	if code, _ := getBody(t, ts.URL+"/jobs/j-999999/result"); code != http.StatusNotFound {
		t.Errorf("GET unknown result = %d", code)
	}
	// Error bodies are JSON.
	_, body := getBody(t, ts.URL+"/jobs/j-999999")
	var apiErr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &apiErr); err != nil || apiErr.Error == "" {
		t.Errorf("error body not {error: ...} JSON: %q", body)
	}
}

func TestHTTPResultBeforeDone(t *testing.T) {
	srv, ts := apiFixture(t, Config{Workers: 1})
	long := smallSpec("long")
	long.Steps = 50
	j, err := srv.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := getBody(t, ts.URL+"/jobs/"+j.ID+"/result"); code != http.StatusConflict {
		t.Errorf("result of unfinished job = %d, want 409", code)
	}
	srv.Cancel(j.ID)
	waitDone(t, j)
}
