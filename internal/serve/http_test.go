package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func httpFixture(t *testing.T) (*Service, *httptest.Server) {
	t.Helper()
	s, err := New(Config{Estimator: &stubEstimator{}, InputSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
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
	_, ts := httpFixture(t)

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
	cir := body["cir"].([]any)
	if len(cir) != 1 || cir[0].([]any)[0].(float64) != 42 {
		t.Fatalf("cir = %v, want [[42 0]]", cir)
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
	_, ts := httpFixture(t)
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
	s, ts := httpFixture(t)
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
	if got := body["cir"].([]any)[0].([]any)[0].(float64); got != 7 {
		t.Fatalf("cir = %v, want frame 7", got)
	}
}

func TestHTTPCloseLinkAndCap(t *testing.T) {
	s, err := New(Config{Estimator: &stubEstimator{}, InputSize: 1, MaxLinks: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer func() {
		ts.Close()
		s.Close()
	}()
	// First session fits; the second hits the cap.
	getJSON(t, ts.URL+"/estimate?link=a")
	resp, body := getJSON(t, ts.URL+"/estimate?link=b")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap session: %d (%v), want 429", resp.StatusCode, body)
	}
	// DELETE frees the slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/links?id=a", nil)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp2); resp2.StatusCode != http.StatusOK || body["closed"] != "a" {
		t.Fatalf("DELETE /links: %d (%v)", resp2.StatusCode, body)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/links?id=a", nil)
	resp2, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE of closed link: %d, want 404", resp2.StatusCode)
	}
	resp2.Body.Close()
	resp, body = getJSON(t, ts.URL+"/estimate?link=b")
	if resp.StatusCode == http.StatusTooManyRequests {
		t.Fatalf("capacity not freed after DELETE: %v", body)
	}
}

func TestHTTPClosedServiceIs503(t *testing.T) {
	s, ts := httpFixture(t)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	resp, body := postJSON(t, ts.URL+"/estimate", map[string]any{"link": "a", "image": []float32{1}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST to closed service: %d (%v), want 503", resp.StatusCode, body)
	}
}

func TestHTTPOversizedBodyIs413(t *testing.T) {
	_, ts := httpFixture(t) // InputSize 1 → body cap is tiny
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
