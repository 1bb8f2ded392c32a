package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"vvd/internal/serve"
)

// httpFixture fronts a service with the HTTP/JSON codec over its
// ServiceHandler. The StubEstimator over 1-pixel frames serves
// cir[0][0] == the frame's pixel (see stubCIR).
func httpFixture(t *testing.T, scfg serve.Config) (*serve.Service, *httptest.Server) {
	t.Helper()
	scfg.Estimator = &serve.StubEstimator{}
	scfg.InputSize = 1
	s, err := serve.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHTTPHandler(NewServiceHandler(s), scfg.InputSize))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// stubCIRJSON is the StubEstimator's estimate of the 1-pixel frame
// {pixel}, in the [[re,im],...] shape the HTTP codec serves.
func stubCIRJSON(pixel float32) []any {
	cir := stubCIR([]float32{pixel})
	out := make([]any, len(cir))
	for k, c := range cir {
		out[k] = []any{float64(real(c)), float64(imag(c))}
	}
	return out
}

func postJSON(t *testing.T, url string, body any) (*http.Response, map[string]any) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func deleteLink(t *testing.T, base, id string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, base+"/links?id="+id, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHTTPEstimateRoundTrip(t *testing.T) {
	_, ts := httpFixture(t, serve.Config{})

	// No estimate published yet.
	resp, body := getJSON(t, ts.URL+"/estimate?link=a")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET before publish: %d (%v), want 404", resp.StatusCode, body)
	}

	// POST a frame and get its estimate back.
	resp, body = postJSON(t, ts.URL+"/estimate", map[string]any{"link": "a", "image": []float32{42}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: %d (%v)", resp.StatusCode, body)
	}
	if got, want := body["cir"].([]any), stubCIRJSON(42); !reflect.DeepEqual(got, want) {
		t.Fatalf("cir = %v, want %v", got, want)
	}
	if body["frame_seq"].(float64) != 1 {
		t.Fatalf("frame_seq = %v, want 1", body["frame_seq"])
	}

	// GET now serves the freshest estimate, auto-opening a new session.
	resp, body = getJSON(t, ts.URL+"/estimate?link=b")
	if resp.StatusCode != http.StatusOK || body["frame_seq"].(float64) != 1 {
		t.Fatalf("GET after publish: %d (%v)", resp.StatusCode, body)
	}

	// /links reflects both sessions and their serving stats.
	resp, body = getJSON(t, ts.URL+"/links")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/links: %d", resp.StatusCode)
	}
	links := body["links"].([]any)
	if len(links) != 2 {
		t.Fatalf("links = %v, want sessions a and b", links)
	}
	first := links[0].(map[string]any)
	if first["id"].(string) != "a" || first["served"].(float64) != 1 {
		t.Fatalf("link a stats = %v", first)
	}

	// /metricsz accounts for the one inferred frame.
	resp, body = getJSON(t, ts.URL+"/metricsz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz: %d", resp.StatusCode)
	}
	if body["frames_inferred"].(float64) != 1 || body["active_links"].(float64) != 2 {
		t.Fatalf("metrics = %v", body)
	}
}

func TestHTTPBadRequests(t *testing.T) {
	_, ts := httpFixture(t, serve.Config{})
	cases := []struct {
		name string
		do   func() (*http.Response, map[string]any)
		want int
	}{
		{"bad json", func() (*http.Response, map[string]any) {
			resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader([]byte("{nope")))
			if err != nil {
				t.Fatal(err)
			}
			return resp, decodeBody(t, resp)
		}, http.StatusBadRequest},
		{"missing link", func() (*http.Response, map[string]any) {
			return postJSON(t, ts.URL+"/estimate", map[string]any{"image": []float32{1}})
		}, http.StatusBadRequest},
		{"wrong image size", func() (*http.Response, map[string]any) {
			return postJSON(t, ts.URL+"/estimate", map[string]any{"link": "a", "image": []float32{1, 2, 3}})
		}, http.StatusBadRequest},
		{"missing query link", func() (*http.Response, map[string]any) {
			return getJSON(t, ts.URL+"/estimate")
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := tc.do()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d (%v), want %d", tc.name, resp.StatusCode, body, tc.want)
		}
		if body["error"] == "" {
			t.Fatalf("%s: missing error message", tc.name)
		}
	}
}

func TestHTTPPostWithoutImageServesFreshest(t *testing.T) {
	s, ts := httpFixture(t, serve.Config{})
	seq, _, err := s.Submit([]float32{7})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.WaitFor(seq, 5*time.Second); !ok {
		t.Fatal("estimate never published")
	}
	resp, body := postJSON(t, ts.URL+"/estimate", map[string]any{"link": "poller"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST without image: %d (%v)", resp.StatusCode, body)
	}
	if got, want := body["cir"].([]any), stubCIRJSON(7); !reflect.DeepEqual(got, want) {
		t.Fatalf("cir = %v, want frame 7's %v", got, want)
	}
}

func TestHTTPCloseLinkAndCap(t *testing.T) {
	_, ts := httpFixture(t, serve.Config{MaxLinks: 1})
	// First session fits; the second hits the cap.
	getJSON(t, ts.URL+"/estimate?link=a")
	resp, body := getJSON(t, ts.URL+"/estimate?link=b")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap session: %d (%v), want 429", resp.StatusCode, body)
	}
	// DELETE frees the slot.
	if resp, body := deleteLink(t, ts.URL, "a"); resp.StatusCode != http.StatusOK || body["closed"] != "a" {
		t.Fatalf("DELETE /links: %d (%v)", resp.StatusCode, body)
	}
	if resp, _ := deleteLink(t, ts.URL, "a"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE of closed link: %d, want 404", resp.StatusCode)
	}
	resp, body = getJSON(t, ts.URL+"/estimate?link=b")
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Fatalf("capacity not freed after DELETE: %v", body)
	}
}

func TestHTTPClosedServiceIs503(t *testing.T) {
	s, ts := httpFixture(t, serve.Config{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/estimate", map[string]any{"link": "a", "image": []float32{1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST to closed service: %d (%v), want 503", resp.StatusCode, body)
	}
}

func TestHTTPOversizedBodyIs413(t *testing.T) {
	_, ts := httpFixture(t, serve.Config{}) // maxPixels 1 → body cap is tiny
	big := make([]byte, 64<<10)
	for i := range big {
		big[i] = '1'
	}
	body := append([]byte(`{"link":"a","image":[`), big...)
	body = append(body, []byte(`]}`)...)
	resp, err := http.Post(ts.URL+"/estimate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out := decodeBody(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: %d (%v), want 413", resp.StatusCode, out)
	}
}

// TestWaitFromMS pins the wait_ms→Duration conversion: values up to
// MaxWait convert exactly, anything above clamps to MaxWait, huge values
// that would overflow the multiplication clamp too, and every negative
// value stays negative (fire-and-forget) instead of wrapping around.
func TestWaitFromMS(t *testing.T) {
	for _, tc := range []struct {
		ms   int
		want time.Duration
	}{
		{math.MinInt, -MaxWait},
		{-9223372036855, -MaxWait},
		{-1, -time.Millisecond},
		{0, 0},
		{5, 5 * time.Millisecond},
		{60000, MaxWait},
		{60001, MaxWait},
		{1 << 62, MaxWait},
		{math.MaxInt, MaxWait},
	} {
		if got := waitFromMS(tc.ms); got != tc.want {
			t.Errorf("waitFromMS(%d) = %v, want %v", tc.ms, got, tc.want)
		}
	}
}

// failingHandler answers every call with the same error.
type failingHandler struct{ err error }

func (f failingHandler) Submit(string, []float32, time.Duration, *EstimateReply) error {
	return f.err
}
func (f failingHandler) Fetch(string, *EstimateReply) error { return f.err }
func (f failingHandler) Stats(string) ([]LinkStats, error)  { return nil, f.err }
func (f failingHandler) CloseLink(string) error             { return f.err }
func (f failingHandler) Metrics() (MetricsReply, error)     { return MetricsReply{}, f.err }
func (f failingHandler) Ping() (PongReply, error)           { return PongReply{}, f.err }

// TestHTTPStatusTable pins the one Status → HTTP map on every route,
// including statuses a serve.Service never returns (overloaded comes
// from an in-flight bound, internal from a failing handler), and a
// plain error, which is a 500. Each error body is the bare message.
func TestHTTPStatusTable(t *testing.T) {
	if got := StatusOK.httpCode(); got != http.StatusOK {
		t.Fatalf("StatusOK → %d, want 200", got)
	}
	routes := []struct{ method, target, body string }{
		{http.MethodPost, "/estimate", `{"link":"a","image":[1]}`},
		{http.MethodPost, "/estimate", `{"link":"a"}`},
		{http.MethodGet, "/estimate?link=a", ""},
		{http.MethodGet, "/links", ""},
		{http.MethodDelete, "/links?id=a", ""},
		{http.MethodGet, "/metricsz", ""},
	}
	for _, tc := range []struct {
		err      error
		want     int
		wantBody string
	}{
		{Errf(StatusBadRequest, "bad frame"), http.StatusBadRequest, "bad frame"},
		{Errf(StatusNoEstimate, "nothing yet"), http.StatusNotFound, "nothing yet"},
		{Errf(StatusNotReady, "too slow"), http.StatusGatewayTimeout, "too slow"},
		{Errf(StatusOverloaded, "shed"), http.StatusServiceUnavailable, "shed"},
		{Errf(StatusUnavailable, "closed"), http.StatusServiceUnavailable, "closed"},
		{Errf(StatusTooManyLinks, "cap"), http.StatusTooManyRequests, "cap"},
		{Errf(StatusInternal, "broke"), http.StatusInternalServerError, "broke"},
		{Errf(Status(99), "from the future"), http.StatusInternalServerError, "from the future"},
		{errors.New("plain failure"), http.StatusInternalServerError, "plain failure"},
	} {
		h := NewHTTPHandler(failingHandler{tc.err}, 0)
		for _, rt := range routes {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.target, strings.NewReader(rt.body)))
			if rec.Code != tc.want {
				t.Errorf("%v on %s %s: HTTP %d, want %d", tc.err, rt.method, rt.target, rec.Code, tc.want)
			}
			var body map[string]string
			if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || len(body) != 1 || body["error"] != tc.wantBody {
				t.Errorf("%v on %s %s: body %q, want {\"error\": %q}", tc.err, rt.method, rt.target, rec.Body, tc.wantBody)
			}
		}
	}
}

// TestHTTPSessionDeleteReturnsGoroutinesToBaseline exercises the HTTP
// surface: auto-opened session, session DELETE, then server and service
// shutdown must return the process to its goroutine baseline.
func TestHTTPSessionDeleteReturnsGoroutinesToBaseline(t *testing.T) {
	verifyNoLeaks(t)
	_, ts := httpFixture(t, serve.Config{})

	resp, body := postJSON(t, ts.URL+"/estimate", map[string]any{
		"link": "ephemeral", "image": []float32{7},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /estimate: got %d (%v)", resp.StatusCode, body)
	}

	if dresp, got := deleteLink(t, ts.URL, "ephemeral"); dresp.StatusCode != http.StatusOK || got["closed"] != "ephemeral" {
		t.Fatalf("DELETE /links: got %d (%v)", dresp.StatusCode, got)
	}

	_, links := getJSON(t, ts.URL+"/links")
	if ls, ok := links["links"].([]any); !ok || len(ls) != 0 {
		t.Fatalf("links after DELETE: %v", links)
	}
}
