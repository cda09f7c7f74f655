package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestProposeLatencyMetrics drives proposals through the HTTP surface and
// asserts the histogram, quantiles and path-split counters land on
// /metrics.
func TestProposeLatencyMetrics(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	h := srv.Handler()

	post := func(path string, body any) *httptest.ResponseRecorder {
		t.Helper()
		b, _ := json.Marshal(body)
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}

	rr := post("/v1/sessions", SessionRequest{})
	if rr.Code != http.StatusCreated {
		t.Fatalf("open: %d %s", rr.Code, rr.Body)
	}
	var sess SessionResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &sess); err != nil {
		t.Fatal(err)
	}
	// A tiny task the incremental path accepts, then a saturating task
	// that must be decided by the analyzer or the utilization gate.
	small := workload.SporadicTask(model.Task{WCET: 1, Deadline: 100, Period: 100})
	if rr = post("/v1/sessions/"+sess.ID+"/propose", ProposeRequest{Task: small}); rr.Code != http.StatusOK {
		t.Fatalf("propose: %d %s", rr.Code, rr.Body)
	}
	var pr ProposeResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if !pr.Admitted || pr.Escalated {
		t.Fatalf("small task should be a fast accept, got admitted=%v escalated=%v", pr.Admitted, pr.Escalated)
	}
	// Sub-unit utilization but an exact demand violation at I = 500
	// (500 + small's demand 5 > 500): the certificate cannot accept, the
	// analyzer runs and rejects.
	tight := workload.SporadicTask(model.Task{WCET: 500, Deadline: 500, Period: 1000})
	if rr = post("/v1/sessions/"+sess.ID+"/propose", ProposeRequest{Task: tight}); rr.Code != http.StatusOK {
		t.Fatalf("propose tight: %d %s", rr.Code, rr.Body)
	}
	if err := json.Unmarshal(rr.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	if pr.Admitted || !pr.Escalated {
		t.Fatalf("tight task should be an escalated rejection, got admitted=%v escalated=%v", pr.Admitted, pr.Escalated)
	}
	batch := ProposeBatchRequest{Tasks: []workload.Task{
		workload.SporadicTask(model.Task{WCET: 1, Deadline: 200, Period: 200}),
		workload.SporadicTask(model.Task{WCET: 1, Deadline: 300, Period: 300}),
	}}
	if rr = post("/v1/sessions/"+sess.ID+"/propose-batch", batch); rr.Code != http.StatusOK {
		t.Fatalf("propose-batch: %d %s", rr.Code, rr.Body)
	}

	var page bytes.Buffer
	srv.writeMetrics(&page)
	text := page.String()
	for _, want := range []string{
		"edfd_session_proposals_total 4",
		"edfd_propose_ns_count 4",
		"edfd_session_proposals_incremental_total 3",
		"edfd_session_proposals_escalated_total 1",
		"edfd_arith_promotions_total 0",
		"edfd_propose_ns_p50 ",
		"edfd_propose_ns_p99 ",
		"# TYPE edfd_propose_ns histogram",
		`edfd_propose_ns_bucket{le="1"} `,
		`edfd_propose_ns_bucket{le="4294967296"} 4`,
		`edfd_propose_ns_bucket{le="+Inf"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics page missing %q:\n%s", want, text)
		}
	}
	if err := obs.ValidateExposition(strings.NewReader(text)); err != nil {
		t.Errorf("metrics page is not valid exposition format: %v\n%s", err, text)
	}
}
