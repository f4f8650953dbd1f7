package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/flightrec"
	"repro/internal/serve"
	"repro/internal/wire"
)

func newTestHandler(t *testing.T) *handler {
	t.Helper()
	h := &handler{s: serve.New(serve.Options{}), flight: flightrec.New(8)}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := h.s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return h
}

// postJSON and postBinary drive the handler directly, off the network.
func postJSON(t *testing.T, h *handler, sh wire.Shape, data []float64) *httptest.ResponseRecorder {
	t.Helper()
	body, err := marshalJSONRequest(sh, data)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.transform(rec, httptest.NewRequest(http.MethodPost, "/transform", bytes.NewReader(body)))
	return rec
}

func postBinary(t *testing.T, h *handler, sh wire.Shape, data []float64) *httptest.ResponseRecorder {
	t.Helper()
	req, err := wire.NewBinaryRequest("", sh, data)
	if err != nil {
		t.Fatal(err)
	}
	hreq := httptest.NewRequest(http.MethodPost, req.URL.String(), bytes.NewReader(wire.FloatBytes(data)))
	hreq.Header = req.Header
	rec := httptest.NewRecorder()
	h.transform(rec, hreq)
	return rec
}

// A result that overflowed to ±Inf or NaN used to answer 200 with an empty body
// (the encoder's UnsupportedValueError was dropped). The JSON framing now
// answers a typed 422 naming the first offending value; the binary framing
// carries the same result as is.
func TestTransformNonFiniteResult(t *testing.T) {
	h := newTestHandler(t)
	sh := wire.Shape{Rank: 1, Dims: [3]int{8}}
	data := make([]float64, 16)
	for i := range data {
		data[i] = 1.5e308 // the DC bin sums eight of these
	}

	rec := postJSON(t, h, sh, data)
	if rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("JSON: status %d, body %q; want 422", rec.Code, rec.Body)
	}
	if msg := rec.Body.String(); !strings.Contains(msg, "result value 0 is ") {
		t.Errorf("JSON: 422 body %q does not name the first non-finite value", msg)
	}
	if e := h.flight.Entries()[0]; e.Status != "error" || e.ErrKind != "nonfinite" || e.RespBytes != 0 {
		t.Errorf("flight entry %+v, want an error of kind nonfinite", e)
	}

	bin := postBinary(t, h, sh, data)
	if bin.Code != http.StatusOK {
		t.Fatalf("binary: status %d, body %q", bin.Code, bin.Body)
	}
	words, err := wire.ReadBinaryResponse(bin.Result())
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != 16 || wire.CheckFinite(words[:1]) == nil {
		t.Errorf("binary: DC bin %v, want the overflowed value carried through", words[:2])
	}
	if e := h.flight.Entries()[0]; e.Status != "ok" || e.Codec != "bin" || e.ReqBytes != 128 || e.RespBytes != 128 {
		t.Errorf("flight entry %+v, want ok over bin with 128 bytes each way", e)
	}
}

// Hostile and malformed requests are refused with the status the handler
// doc promises, before the serving layer sees them.
func TestTransformRefusals(t *testing.T) {
	h := newTestHandler(t)
	cases := []struct {
		name, body string
		status     int
	}{
		{"element count over the cap", `{"rank":3,"dims":[1024,1024,1024],"data":[]}`, http.StatusRequestEntityTooLarge},
		{"dims product overflows", `{"rank":3,"dims":[3037000500,3037000500,3037000500],"data":[]}`, http.StatusRequestEntityTooLarge},
		{"padding past the shape's byte budget", `{"rank":1,"dims":[1],"data":[1,` + strings.Repeat(" ", 8192) + `2]}`, http.StatusRequestEntityTooLarge},
		{"trailing bytes", `{"rank":1,"dims":[1],"data":[1,2]}]`, http.StatusBadRequest},
		{"unknown member", `{"rank":1,"dims":[1],"window":"hann","data":[1,2]}`, http.StatusBadRequest},
		{"duplicate member", `{"rank":1,"dims":[1],"dims":[1],"data":[1,2]}`, http.StatusBadRequest},
		{"member in another case", `{"Rank":1,"dims":[1],"data":[1,2]}`, http.StatusBadRequest},
		{"number token over the bound", `{"rank":1,"dims":[1],"data":[1,0.` + strings.Repeat("3", 60) + `]}`, http.StatusBadRequest},
		{"wrong count", `{"rank":1,"dims":[4],"data":[1,2]}`, http.StatusBadRequest},
		{"odd real last extent refused at decode", `{"rank":1,"dims":[1],"real":true,"data":[1]}`, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		h.transform(rec, httptest.NewRequest(http.MethodPost, "/transform", strings.NewReader(c.body)))
		if rec.Code != c.status {
			t.Errorf("%s: status %d (%s), want %d", c.name, rec.Code, strings.TrimSpace(rec.Body.String()), c.status)
		}
	}
	rec := httptest.NewRecorder()
	h.transform(rec, httptest.NewRequest(http.MethodGet, "/transform", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", rec.Code)
	}
}

// At 256² the flight recorder's budget closes: decode + do + encode is the
// handler's wall time to within 5 %, the byte counts are the bodies', the
// JSON reply is byte-identical to encoding/json's rendering of the result,
// and the binary reply carries the same bits.
func TestTransformBudgetAndFramingsAgreeAt256(t *testing.T) {
	h := newTestHandler(t)
	sh := wire.Shape{Rank: 2, Dims: [3]int{256, 256}}
	data := make([]float64, 2*256*256)
	for i := range data {
		data[i] = math.Sin(float64(i+1) * 0.7)
	}
	body, err := marshalJSONRequest(sh, data)
	if err != nil {
		t.Fatal(err)
	}
	postJSON(t, h, sh, data) // build the plan off the clock

	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/transform", bytes.NewReader(body))
	t0 := time.Now()
	h.transform(rec, req)
	wall := time.Since(t0)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	e := h.flight.Entries()[0]
	if e.TraceID != rec.Header().Get("X-Trace-Id") || e.Codec != "json" {
		t.Fatalf("newest flight entry %+v is not this request", e)
	}
	if sum := e.Decode + e.Duration + e.Encode; sum > wall || float64(sum) < 0.95*float64(wall) {
		t.Errorf("decode %v + do %v + encode %v = %v of a %v handler call, want ≥ 95 %%",
			e.Decode, e.Duration, e.Encode, sum, wall)
	}
	if e.ReqBytes != int64(len(body)) || e.RespBytes != int64(rec.Body.Len()) {
		t.Errorf("flight entry counts %d/%d bytes, bodies were %d/%d", e.ReqBytes, e.RespBytes, len(body), rec.Body.Len())
	}

	var jresp jsonResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &jresp); err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	if err := json.NewEncoder(&ref).Encode(jresp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), ref.Bytes()) {
		t.Error("JSON reply is not byte-identical to encoding/json's encoding of the same values")
	}

	bin := postBinary(t, h, sh, data)
	words, err := wire.ReadBinaryResponse(bin.Result())
	if err != nil {
		t.Fatalf("binary: status %d: %v", bin.Code, err)
	}
	if len(words) != len(jresp.Data) {
		t.Fatalf("binary reply has %d values, JSON %d", len(words), len(jresp.Data))
	}
	for i := range words {
		if math.Float64bits(words[i]) != math.Float64bits(jresp.Data[i]) {
			t.Fatalf("value %d: binary %v, JSON %v", i, words[i], jresp.Data[i])
		}
	}
}

// /metrics/fleet reads a peer's /metrics body through a byte cap: a peer
// that answers with more than maxScrapeBytes fails the aggregation with a
// 502 naming it, and one inside the cap is merged under its node label.
func TestMetricsFleetCapsPeerBody(t *testing.T) {
	line := []byte("# filler comment line, ignored by the parser ........................\n")
	peer := func(lines int) *httptest.Server {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			for i := 0; i < lines; i++ {
				if _, err := w.Write(line); err != nil {
					return // the scraper hung up at the cap
				}
			}
			_, _ = w.Write([]byte("fft_peer_marker 1\n"))
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	h := newTestHandler(t)

	ok := peer(10)
	h.fleetPeers = []string{ok.URL}
	rec := httptest.NewRecorder()
	h.metricsFleet(rec, httptest.NewRequest(http.MethodGet, "/metrics/fleet", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `fft_peer_marker{node="`+ok.URL+`"} 1`) {
		t.Fatalf("small peer: status %d, marker merged = %v", rec.Code, strings.Contains(rec.Body.String(), "fft_peer_marker"))
	}

	big := peer(maxScrapeBytes/len(line) + 1)
	h.fleetPeers = []string{big.URL}
	rec = httptest.NewRecorder()
	h.metricsFleet(rec, httptest.NewRequest(http.MethodGet, "/metrics/fleet", nil))
	if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), "exceeds") {
		t.Fatalf("oversized peer: status %d, body %q; want 502 naming the cap", rec.Code, rec.Body)
	}
}
