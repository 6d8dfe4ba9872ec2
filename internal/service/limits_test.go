package service

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
)

// TestHTTPOversizeBody sends a body past MaxRequestBytes to the predict
// fast path and to a route-table endpoint: each must be refused with
// 413 without reading the rest, and the server must keep serving.
func TestHTTPOversizeBody(t *testing.T) {
	_, srv := newTestServer(t)
	huge := `{"model":"errors","statement":"` + strings.Repeat("x", 17<<20) + `"}`
	for _, path := range []string{"/v1/predict", "/v1/ingest"} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: 17 MiB body status = %d, want 413", path, resp.StatusCode)
		}
		next := postJSON(t, srv.URL+"/v1/predict", predictRequest{Model: "errors", Statement: testStatements(1)[0]})
		next.Body.Close()
		if next.StatusCode != http.StatusOK {
			t.Fatalf("request after oversize %s body: status %d", path, next.StatusCode)
		}
	}
	// A body right at the cap is still read (and rejected on content).
	atCap := bytes.Repeat([]byte(" "), MaxRequestBytes)
	resp, err := http.Post(srv.URL+"/v1/deploy", "application/json", bytes.NewReader(atCap))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("body at the cap: status %d, want 400", resp.StatusCode)
	}
}
