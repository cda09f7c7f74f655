package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	edf "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/client"
)

// fakeReplica is an edfd stand-in: GET /healthz answers 200 and every
// other request goes to h.
func fakeReplica(t *testing.T, h http.HandlerFunc) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write([]byte(`{"status":"ok"}`))
			return
		}
		h(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// proxyOver mounts a proxy over the given replicas.
func proxyOver(t *testing.T, reps ...*httptest.Server) *httptest.Server {
	t.Helper()
	urls := make([]string, len(reps))
	for i, rep := range reps {
		urls[i] = rep.URL
	}
	p, err := cluster.New(cluster.Config{Replicas: urls})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	hs := httptest.NewServer(p.Handler())
	t.Cleanup(hs.Close)
	return hs
}

// busy answers the typed 503 an overloaded edfd gives, naming the
// replica so a test can tell whose body reached the client.
func busy(w http.ResponseWriter, r *http.Request) {
	msg := "replica http://" + r.Host + " is saturated"
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(service.ErrorResponse{
		Error: msg, Code: "unavailable", Message: msg, Retryable: true,
	})
}

// echoBatch answers a batch with one job per set, in request order.
func echoBatch(t *testing.T, w http.ResponseWriter, r *http.Request) {
	var req service.BatchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		t.Errorf("fake replica: decoding batch: %v", err)
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	out := service.BatchResponse{}
	for i, set := range req.Sets {
		out.Results = append(out.Results, service.BatchJobJSON{
			SetIndex: i, SetName: set.Name, Analyzer: "cascade",
			Result: service.ResultJSON{Verdict: "feasible"},
		})
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(out)
}

// proxyCounter reads one of the proxy's own counters off /metrics.
func proxyCounter(t *testing.T, hs *httptest.Server, name string) int {
	t.Helper()
	text := mustMetrics(t, client.New(hs.URL, hs.Client()))
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			n, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("metrics page has no %s:\n%s", name, text)
	return 0
}

// proxyTrace fetches one trace from the proxy's merged view.
func proxyTrace(t *testing.T, hs *httptest.Server, id string) obs.Trace {
	t.Helper()
	tr, err := client.New(hs.URL, hs.Client()).Trace(context.Background(), id)
	if err != nil {
		t.Fatalf("trace %s: %v", id, err)
	}
	return tr
}

func postJSON(t *testing.T, hs *httptest.Server, path string, v any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hs.Client().Post(hs.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

// splitBatch builds a batch whose sets are owned by both replicas of a
// two-node ring, using the proxy's routing key (the workload
// fingerprint under no analyzer and zero options).
func splitBatch(t *testing.T, a, b string) service.BatchRequest {
	t.Helper()
	ring := cluster.NewRing(0)
	ring.Add(a)
	ring.Add(b)
	var req service.BatchRequest
	owned := map[string]int{}
	for _, ts := range genSets(t, 64, 59) {
		wl := edf.SporadicWorkload(ts)
		fp, _ := engine.WorkloadFingerprint(wl, "", core.Options{})
		owner := ring.Get(fp)
		if owned[owner] == 3 {
			continue
		}
		owned[owner]++
		req.Sets = append(req.Sets, service.WorkloadSet{Name: "set-" + strconv.Itoa(len(req.Sets)), Workload: wl})
	}
	if owned[a] == 0 || owned[b] == 0 {
		t.Fatalf("no split: ownership %v", owned)
	}
	return req
}

// TestSessionCreateSingleAttempt pins that a session create is never
// retried: creates are not idempotent, so an owner that fails at the
// transport level costs the client a 502 and no other replica sees it.
func TestSessionCreateSingleAttempt(t *testing.T) {
	var creates atomic.Int64
	drop := func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sessions" {
			busy(w, r)
			return
		}
		creates.Add(1)
		conn, _, err := w.(http.Hijacker).Hijack()
		if err != nil {
			t.Errorf("hijack: %v", err)
			return
		}
		conn.Close()
	}
	hs := proxyOver(t, fakeReplica(t, drop), fakeReplica(t, drop))
	resp, body := postJSON(t, hs, "/v1/sessions", service.SessionRequest{})
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502: %s", resp.StatusCode, body)
	}
	if n := creates.Load(); n != 1 {
		t.Fatalf("replicas saw %d creates, want exactly 1", n)
	}
}

// TestAnalyzeAllRetryableRelaysLast pins the end of the failover walk:
// when every ring node answers 503, the last node's status and typed
// body reach the client, every node was tried once, and each step past
// the first counts as a failover.
func TestAnalyzeAllRetryableRelaysLast(t *testing.T) {
	var hits atomic.Int64
	h := func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/analyze" {
			hits.Add(1)
		}
		busy(w, r)
	}
	reps := []*httptest.Server{fakeReplica(t, h), fakeReplica(t, h), fakeReplica(t, h)}
	hs := proxyOver(t, reps...)
	before := proxyCounter(t, hs, "edfproxy_failovers_total")

	resp, body := postJSON(t, hs, "/v1/analyze", service.AnalyzeRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{WCET: 1, Deadline: 4, Period: 4}}),
	})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want the replicas' 503: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(cluster.HeaderAttempts); got != strconv.Itoa(len(reps)) {
		t.Fatalf("X-Edf-Attempts = %q, want %d", got, len(reps))
	}
	last := resp.Header.Get(cluster.HeaderReplica)
	var er service.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("decoding body %q: %v", body, err)
	}
	if want := "replica " + last + " is saturated"; er.Message != want || er.Code != "unavailable" || !er.Retryable {
		t.Fatalf("body = %+v, want the last node's (%s) typed 503", er, last)
	}
	if n := hits.Load(); n != int64(len(reps)) {
		t.Fatalf("replicas saw %d analyze requests, want %d", n, len(reps))
	}
	if d := proxyCounter(t, hs, "edfproxy_failovers_total") - before; d != len(reps)-1 {
		t.Fatalf("failovers grew by %d, want %d", d, len(reps)-1)
	}
	var details []string
	for _, sp := range proxyTrace(t, hs, resp.Header.Get(obs.TraceHeader)).Spans {
		if sp.Name == "forward" {
			details = append(details, sp.Detail)
		}
	}
	want := []string{"retryable status 503", "retryable status 503", "status 503"}
	if strings.Join(details, "|") != strings.Join(want, "|") {
		t.Fatalf("forward span details = %q, want %q", details, want)
	}
}

// TestSessionTakeoverSpans pins the trace of a takeover: the failed
// request to the dead owner is a "route" span carrying the error, and
// the peer's answer is a "takeover" span naming the dead owner.
func TestSessionTakeoverSpans(t *testing.T) {
	sessionOK := func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/sessions/") {
			busy(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"id":"s"}`))
	}
	a, b := fakeReplica(t, sessionOK), fakeReplica(t, sessionOK)
	hs := proxyOver(t, a, b)
	// An id the proxy never saw created routes by its ring hash.
	ring := cluster.NewRing(0)
	ring.Add(a.URL)
	ring.Add(b.URL)
	const id = "s_takeover_spans"
	owner, peer := a, b
	if ring.Get(id) == b.URL {
		owner, peer = b, a
	}
	owner.Close()

	resp, err := hs.Client().Get(hs.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(cluster.HeaderTakeover) != owner.URL {
		t.Fatalf("status %d, %s %q: want 200 taken over from %s",
			resp.StatusCode, cluster.HeaderTakeover, resp.Header.Get(cluster.HeaderTakeover), owner.URL)
	}
	spans := map[string]obs.Span{}
	for _, sp := range proxyTrace(t, hs, resp.Header.Get(obs.TraceHeader)).Spans {
		spans[sp.Name] = sp
	}
	if sp := spans["route"]; sp.Replica != owner.URL || !strings.HasPrefix(sp.Detail, "error: ") {
		t.Fatalf("route span = %+v, want the error from %s", sp, owner.URL)
	}
	if sp, want := spans["takeover"], "from "+owner.URL+", status 200"; sp.Replica != peer.URL || sp.Detail != want {
		t.Fatalf("takeover span = %+v, want %q on %s", sp, want, peer.URL)
	}
}

// TestSplitBatchSubBatchFailover pins per-sub-batch failover: the
// sub-batch whose owner answers 503 moves to the next ring node, and the
// merged reply reports the worst sub-batch's two attempts.
func TestSplitBatchSubBatchFailover(t *testing.T) {
	var goodBatches atomic.Int64
	bad := fakeReplica(t, busy)
	good := fakeReplica(t, func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/batch" {
			busy(w, r)
			return
		}
		goodBatches.Add(1)
		echoBatch(t, w, r)
	})
	hs := proxyOver(t, bad, good)
	req := splitBatch(t, bad.URL, good.URL)

	resp, body := postJSON(t, hs, "/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get(cluster.HeaderAttempts); got != "2" {
		t.Fatalf("X-Edf-Attempts = %q, want 2", got)
	}
	if got := resp.Header.Get(cluster.HeaderReplica); got != good.URL {
		t.Fatalf("X-Edf-Replica = %q, want only %s", got, good.URL)
	}
	if n := goodBatches.Load(); n != 2 {
		t.Fatalf("healthy replica saw %d sub-batches, want its own plus the failed-over one", n)
	}
	var out service.BatchResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != len(req.Sets) {
		t.Fatalf("%d results, want %d", len(out.Results), len(req.Sets))
	}
	for i, job := range out.Results {
		if job.SetIndex != i || job.SetName != req.Sets[i].Name {
			t.Fatalf("job %d: set %d %q, want %d %q", i, job.SetIndex, job.SetName, i, req.Sets[i].Name)
		}
	}
}

// TestSplitBatchLastNodeRetryable502 pins that a sub-batch still getting
// a retryable status from its last ring node fails the whole batch with
// 502: a split reply cannot relay one replica's status for the rest.
func TestSplitBatchLastNodeRetryable502(t *testing.T) {
	a, b := fakeReplica(t, busy), fakeReplica(t, busy)
	hs := proxyOver(t, a, b)
	resp, body := postJSON(t, hs, "/v1/batch", splitBatch(t, a.URL, b.URL))
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("status = %d, want 502: %s", resp.StatusCode, body)
	}
	var er service.ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("decoding body %q: %v", body, err)
	}
	if !strings.Contains(er.Message, "batch split failed") {
		t.Fatalf("message = %q, want the batch split failure", er.Message)
	}
}
