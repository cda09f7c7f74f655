package service_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/service"
)

// trailingBodies are valid requests followed by something other than
// whitespace. edfd once decoded only the first JSON value of a body and
// answered 200 to all of them, while edfproxy rejected them; both now
// answer the typed 400.
var trailingBodies = map[string][]string{
	"/v1/analyze": {
		`{"tasks":[{"wcet":1,"deadline":2,"period":4}]} trailing garbage`,
		`{"tasks":[{"wcet":1,"deadline":2,"period":4}]}{"tasks":[{"wcet":1,"deadline":2,"period":4}]}`,
	},
	"/v1/batch": {
		`{"sets":[{"tasks":[{"wcet":1,"deadline":2,"period":4}]}]} x`,
	},
	"/v1/partition": {
		`{"model":"partitioned","processors":[{}],"tasks":[{"wcet":1,"deadline":2,"period":4}]}]`,
	},
	"/v1/sessions": {
		`{"tasks":[{"wcet":1,"deadline":2,"period":4}]}{}`,
	},
}

// expectTypedBadRequest posts body and demands the typed, non-retryable
// 400 of a malformed request.
func expectTypedBadRequest(t *testing.T, url, body string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var er service.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatalf("%s %q: error body: %v", url, body, err)
	}
	if resp.StatusCode != http.StatusBadRequest || er.Code != service.CodeBadRequest || er.Retryable {
		t.Errorf("%s %q: status %d, %+v; want the typed 400", url, body, resp.StatusCode, er)
	}
}

func TestEdfdRejectsTrailingBytes(t *testing.T) {
	hs := httptest.NewServer(service.New(service.Config{}).Handler())
	defer hs.Close()
	for path, bodies := range trailingBodies {
		for _, body := range bodies {
			expectTypedBadRequest(t, hs.URL+path, body)
		}
	}

	// Session proposals too, against a live session.
	resp, err := http.Post(hs.URL+"/v1/sessions", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	var sess service.SessionResponse
	err = json.NewDecoder(resp.Body).Decode(&sess)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("open session: %d %v", resp.StatusCode, err)
	}
	prefix := hs.URL + "/v1/sessions/" + sess.ID
	expectTypedBadRequest(t, prefix+"/propose", `{"task":{"wcet":1,"deadline":2,"period":4}} {}`)
	expectTypedBadRequest(t, prefix+"/propose-batch", `{"tasks":[{"wcet":1,"deadline":2,"period":4}]},`)
}
