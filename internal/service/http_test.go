package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hmc"
	"hmc/internal/service"
)

// wireJob mirrors the handler's job JSON.
type wireJob struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Program  string `json:"program"`
	Model    string `json:"model"`
	CacheHit bool   `json:"cache_hit"`
	Error    string `json:"error"`
	Result   *struct {
		Executions  int  `json:"executions"`
		ExistsCount int  `json:"exists_count"`
		Allowed     bool `json:"allowed"`
		Blocked     int  `json:"blocked"`
		States      int  `json:"states"`
		Truncated   bool `json:"truncated"`
		Interrupted bool `json:"interrupted"`
		Exhaustive  bool `json:"exhaustive"`
	} `json:"result"`
}

func startServer(t *testing.T, cfg service.Config) (*service.Service, *httptest.Server) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Shutdown(ctx)
	})
	return svc, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, wireJob) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var j wireJob
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &j); err != nil {
		t.Fatalf("bad job JSON (%s): %v", raw, err)
	}
	return resp.StatusCode, j
}

func pollJob(t *testing.T, ts *httptest.Server, id string) wireJob {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var j wireJob
		if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch j.State {
		case "done", "failed", "canceled":
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return wireJob{}
}

func getBody(t *testing.T, ts *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// metricValue extracts one sample from Prometheus exposition text.
func metricValue(t *testing.T, text, name string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			return strings.TrimPrefix(line, name+" ")
		}
	}
	t.Fatalf("metric %s missing from:\n%s", name, text)
	return ""
}

// TestHTTPVerdictMatchesCheckAndCacheHit is the first acceptance test:
// submit a corpus litmus test over HTTP, poll to completion, assert the
// verdict matches hmc.Check, re-submit and observe the cache hit both in
// the job record and on /metrics.
func TestHTTPVerdictMatchesCheckAndCacheHit(t *testing.T) {
	_, ts := startServer(t, service.Config{Workers: 2})

	status, job := postJob(t, ts, `{"test": "MP", "model": "imm"}`)
	if status != http.StatusAccepted && status != http.StatusOK {
		t.Fatalf("submit status %d", status)
	}
	job = pollJob(t, ts, job.ID)
	if job.State != "done" || job.Result == nil {
		t.Fatalf("job did not complete: %+v", job)
	}

	mp, err := hmc.ParseLitmus(`
name MP
T0: W x 1 ; W y 1
T1: r0 = R y ; r1 = R x
exists T1:r0=1 & T1:r1=0
`)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hmc.Check(mp, "imm")
	if err != nil {
		t.Fatal(err)
	}
	if job.Result.Executions != want.Executions {
		t.Errorf("executions %d over HTTP vs %d from hmc.Check", job.Result.Executions, want.Executions)
	}
	if job.Result.Allowed != (want.ExistsCount > 0) {
		t.Errorf("allowed %v over HTTP vs %v from hmc.Check", job.Result.Allowed, want.ExistsCount > 0)
	}
	if !job.Result.Exhaustive {
		t.Error("small unbounded job must be exhaustive")
	}

	// Resubmit: must be served from cache, visible on /metrics.
	status, again := postJob(t, ts, `{"test": "MP", "model": "imm"}`)
	if status != http.StatusOK || !again.CacheHit || again.State != "done" {
		t.Fatalf("resubmission not served from cache: status %d %+v", status, again)
	}
	if again.Result.Executions != job.Result.Executions {
		t.Error("cached executions diverge")
	}
	code, metrics := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if got := metricValue(t, metrics, "hmcd_cache_hits_total"); got != "1" {
		t.Errorf("hmcd_cache_hits_total = %s, want 1", got)
	}
	if got := metricValue(t, metrics, "hmcd_jobs_completed_total"); got != "1" {
		t.Errorf("hmcd_jobs_completed_total = %s, want 1 (cache hit must not re-explore)", got)
	}
}

// counterSource builds a large gen-style litmus workload: n threads each
// performing k atomic increments — the inc(n,k) stress family in the
// text format the service accepts.
func counterSource(n, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "name inc(%dx%d)\n", n, k)
	for t := 0; t < n; t++ {
		fmt.Fprintf(&b, "T%d:", t)
		for i := 0; i < k; i++ {
			if i > 0 {
				b.WriteString(" ;")
			}
			fmt.Fprintf(&b, " r%d = FADD c 1", i)
		}
		b.WriteString("\n")
	}
	b.WriteString("exists c=1\n")
	return b.String()
}

// TestHTTPDeadlineInterruptsLargeJob is the second acceptance test: a
// large generated workload with a short deadline must come back
// interrupted with partial stats, and the daemon must stay healthy.
func TestHTTPDeadlineInterruptsLargeJob(t *testing.T) {
	_, ts := startServer(t, service.Config{Workers: 1})

	body, _ := json.Marshal(map[string]any{
		"source":     counterSource(4, 3),
		"model":      "sc",
		"timeout_ms": 25,
	})
	status, job := postJob(t, ts, string(bytes.TrimSpace(body)))
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d", status)
	}
	job = pollJob(t, ts, job.ID)
	if job.State != "done" || job.Result == nil {
		t.Fatalf("deadline job must still complete with a partial result: %+v", job)
	}
	if !job.Result.Interrupted {
		t.Fatal("result must be marked interrupted")
	}
	if job.Result.Exhaustive {
		t.Fatal("interrupted job must not claim an exhaustive verdict")
	}
	if job.Result.States == 0 {
		t.Error("25ms of exploration should have visited some states")
	}

	// The daemon is still healthy and serves fresh work afterwards.
	code, health := getBody(t, ts, "/healthz")
	if code != http.StatusOK || !strings.Contains(health, `"ok"`) {
		t.Fatalf("daemon unhealthy after interrupted job: %d %s", code, health)
	}
	_, small := postJob(t, ts, `{"test": "SB", "model": "tso"}`)
	small = pollJob(t, ts, small.ID)
	if small.State != "done" || small.Result == nil || !small.Result.Exhaustive {
		t.Fatalf("follow-up job must run to an exhaustive verdict: %+v", small)
	}
	code, metrics := getBody(t, ts, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if got := metricValue(t, metrics, "hmcd_jobs_interrupted_total"); got != "1" {
		t.Errorf("hmcd_jobs_interrupted_total = %s, want 1", got)
	}
}

func TestHTTPCancelRunningJob(t *testing.T) {
	_, ts := startServer(t, service.Config{Workers: 1})

	body, _ := json.Marshal(map[string]string{"source": counterSource(4, 3), "model": "sc"})
	_, job := postJob(t, ts, string(body))
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+job.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status %d", resp.StatusCode)
	}
	job = pollJob(t, ts, job.ID)
	if job.State != "canceled" {
		t.Fatalf("state %s, want canceled", job.State)
	}
}

func TestHTTPSubmitErrors(t *testing.T) {
	_, ts := startServer(t, service.Config{Workers: 1})
	cases := []struct {
		name, body string
	}{
		{"bad json", `{`},
		{"unknown field", `{"prgoram": "x"}`},
		{"no program", `{"model": "sc"}`},
		{"both source and test", `{"source": "T0: W x 1", "test": "SB"}`},
		{"unknown test", `{"test": "definitely-not-a-test"}`},
		{"unknown model", `{"test": "SB", "model": "weird"}`},
		{"parse error", `{"source": "T0: FROB x 1"}`},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, raw)
		}
		if !strings.Contains(string(raw), "error") {
			t.Errorf("%s: error body missing: %s", tc.name, raw)
		}
	}

	if code, _ := getBody(t, ts, "/v1/jobs/no-such-job"); code != http.StatusNotFound {
		t.Errorf("missing job: status %d, want 404", code)
	}
}

// TestHTTPSubmitRejectsShards: sharded exploration is gone, and a client
// still asking for it gets a 400 naming the field rather than a plain job
// it did not ask for.
func TestHTTPSubmitRejectsShards(t *testing.T) {
	_, ts := startServer(t, service.Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"test": "SB", "model": "tso", "shards": 2}`))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (body %s)", resp.StatusCode, raw)
	}
	if !strings.Contains(string(raw), `shards`) {
		t.Errorf("error body does not name the rejected field: %s", raw)
	}
}

func TestHTTPModelsAndTests(t *testing.T) {
	_, ts := startServer(t, service.Config{Workers: 1})
	code, models := getBody(t, ts, "/v1/models")
	if code != http.StatusOK || !strings.Contains(models, `"imm"`) || !strings.Contains(models, `"tso"`) {
		t.Errorf("/v1/models: %d %s", code, models)
	}
	code, tests := getBody(t, ts, "/v1/tests")
	if code != http.StatusOK || !strings.Contains(tests, `"IRIW"`) {
		t.Errorf("/v1/tests: %d %s", code, tests)
	}
	code, list := getBody(t, ts, "/v1/jobs")
	if code != http.StatusOK || !strings.Contains(list, `"jobs"`) {
		t.Errorf("/v1/jobs: %d %s", code, list)
	}
}
