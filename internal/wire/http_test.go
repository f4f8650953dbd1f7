package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// echoHandler answers a request with its own operand: the codecs and the
// negotiation without a transform in between.
func echoHandler(w http.ResponseWriter, r *http.Request) {
	x, err := ReadRequest(w, r)
	if err != nil {
		http.Error(w, err.Error(), Status(err))
		return
	}
	w.Header().Set("X-Req-Codec", string(x.Codec))
	w.Header().Set("X-Req-Bytes", fmt.Sprint(x.ReqBytes))
	if _, err := WriteResponse(w, x.Reply, Result{Dst: x.Src, RealDst: x.RealSrc}); err != nil {
		http.Error(w, err.Error(), Status(err))
	}
}

func TestBinaryRoundTripAndNegotiation(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(echoHandler))
	defer srv.Close()

	shape := Shape{Rank: 2, Dims: [3]int{2, 3}, Inverse: true}
	words := []float64{1, -2, 3.5, math.Inf(1), math.NaN(), 0, 7, 8, 9, 10, 11, math.Copysign(0, -1)}

	// Binary in, binary out: bits preserved, non-finite values included.
	req, err := NewBinaryRequest(srv.URL, shape, words)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinaryResponse(resp)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("status %d: %v", resp.StatusCode, err)
	}
	if !sameBits(got, words) {
		t.Fatalf("binary echo changed the operand: %v", got)
	}
	if c := resp.Header.Get("X-Req-Codec"); c != "bin" {
		t.Errorf("request codec %q, want bin", c)
	}
	if n := resp.Header.Get("X-Req-Bytes"); n != fmt.Sprint(8*len(words)) {
		t.Errorf("request bytes %s, want %d", n, 8*len(words))
	}
	// 16 bytes per complex element each way: the reply body is the operand
	// and nothing else, as the request body was.
	if resp.ContentLength != int64(8*len(words)) {
		t.Errorf("reply is %d bytes, want %d", resp.ContentLength, 8*len(words))
	}

	// Binary in, Accept: application/json out.
	finite := []float64{1, -2, 3.5, 4, 5, 0, 7, 8, 9, 10, 11, 12}
	req, _ = NewBinaryRequest(srv.URL, shape, finite)
	req.Header.Set("Accept", "application/json")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := refEncode(t, finite); !bytes.Equal(body, want) {
		t.Errorf("binary→JSON reply %q, want %q", body, want)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("reply Content-Type %q", ct)
	}

	// JSON in (curl -d's content type), Accept: octet-stream out.
	jbody, _ := json.Marshal(refRequest{Rank: 2, Dims: []int{2, 3}, Data: finite})
	hreq, _ := http.NewRequest(http.MethodPost, srv.URL+"/transform", bytes.NewReader(jbody))
	hreq.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	hreq.Header.Set("Accept", "application/octet-stream")
	resp, err = http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	got, err = ReadBinaryResponse(resp)
	resp.Body.Close()
	if err != nil || !sameBits(got, finite) {
		t.Errorf("JSON→binary reply %v, %v", got, err)
	}
	if c := resp.Header.Get("X-Req-Codec"); c != "json" {
		t.Errorf("request codec %q, want json", c)
	}
	if n := resp.Header.Get("X-Req-Bytes"); n != fmt.Sprint(len(jbody)) {
		t.Errorf("request bytes %s, want %d", n, len(jbody))
	}
}

func TestBinaryRequestRejects(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(echoHandler))
	defer srv.Close()
	words := []float64{1, 2, 3, 4}
	shape := Shape{Rank: 1, Dims: [3]int{2}}

	post := func(mutate func(*http.Request)) (int, string) {
		req, err := NewBinaryRequest(srv.URL, shape, words)
		if err != nil {
			t.Fatal(err)
		}
		mutate(req)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	chunked := func(body []byte) func(*http.Request) {
		return func(r *http.Request) {
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = -1
			r.GetBody = nil
		}
	}
	payload := FloatBytes(words)

	cases := []struct {
		name   string
		mutate func(*http.Request)
		status int
		msg    string
	}{
		{"bad CRC", func(r *http.Request) { r.Header.Set(HeaderCRC, "12345") }, 422, "checksum mismatch"},
		{"missing CRC", func(r *http.Request) { r.Header.Del(HeaderCRC) }, 400, "missing or malformed"},
		{"Content-Length ≠ ∏dims", func(r *http.Request) { r.URL.RawQuery = "dims=4" }, 400, "body is 32 bytes, dims [4] need 64"},
		{"truncated chunked body", chunked(payload[:24]), 400, "body shorter"},
		{"chunked body too long", chunked(append(append([]byte{}, payload...), 0)), 400, "body longer"},
		{"no shape", func(r *http.Request) { r.URL.RawQuery = "" }, 400, "needs the shape"},
		{"unknown parameter", func(r *http.Request) { r.URL.RawQuery += "&rank=1" }, 400, "unknown query parameter"},
		{"repeated parameter", func(r *http.Request) { r.URL.RawQuery += "&dims=2" }, 400, "given 2 times"},
		{"bad bool", func(r *http.Request) { r.URL.RawQuery += "&inverse=maybe" }, 400, "inverse"},
		{"four dims", func(r *http.Request) { r.URL.RawQuery = "dims=1,1,1,2" }, 400, "more than 3 dims"},
		{"zero dim", func(r *http.Request) { r.URL.RawQuery = "dims=0" }, 400, "dims must be ≥ 1"},
		{"over the cap", func(r *http.Request) { r.URL.RawQuery = "dims=65536,65536" }, 413, "exceed"},
		{"overflowing product", func(r *http.Request) { r.URL.RawQuery = "dims=4294967296,4294967296,4294967296" }, 413, "exceed"},
		{"dim past int", func(r *http.Request) { r.URL.RawQuery = "dims=99999999999999999999" }, 413, "exceed"},
		{"dim not a number", func(r *http.Request) { r.URL.RawQuery = "dims=2x" }, 400, "invalid syntax"},
	}
	for _, c := range cases {
		status, msg := post(c.mutate)
		if status != c.status || !strings.Contains(msg, c.msg) {
			t.Errorf("%s: %d %q, want %d mentioning %q", c.name, status, strings.TrimSpace(msg), c.status, c.msg)
		}
	}
}

// endless is a request body whose data section never ends: head, then fill
// over and over. n counts the bytes the decoder pulled.
type endless struct {
	head, fill string
	n          int
}

func (e *endless) Read(p []byte) (int, error) {
	for i := range p {
		if e.n < len(e.head) {
			p[i] = e.head[e.n]
		} else {
			p[i] = e.fill[(e.n-len(e.head))%len(e.fill)]
		}
		e.n++
	}
	return len(p), nil
}

// A shape the server refuses is refused by the codec, 400, before it reads
// the operand: the JSON framing reads no more than one window past the
// "data" key, the binary framing no body byte. The shapes are ones the
// extents alone allow, each with an operand of a million values or more.
func TestShapeRefusedBeforeOperand(t *testing.T) {
	for _, c := range []struct {
		name  string
		shape Shape
	}{
		{"real with an odd last extent", Shape{Rank: 1, Dims: [3]int{1<<20 + 1}, Real: true}},
		{"sharded rank 2", Shape{Rank: 2, Dims: [3]int{1024, 1024}, Sharded: true}},
		{"sharded real", Shape{Rank: 3, Dims: [3]int{128, 128, 128}, Real: true, Sharded: true}},
	} {
		dims, _ := json.Marshal(c.shape.Dims[:c.shape.Rank])
		head := fmt.Sprintf(`{"rank":%d,"dims":%s,"real":%t,"sharded":%t,"data":[`,
			c.shape.Rank, dims, c.shape.Real, c.shape.Sharded)
		body := &endless{head: head, fill: "1,"}
		r := httptest.NewRequest(http.MethodPost, "/transform", body)
		r.ContentLength = -1
		_, err := ReadRequest(httptest.NewRecorder(), r)
		if Status(err) != http.StatusBadRequest || body.n > len(head)+codecChunk {
			t.Errorf("%s, JSON: status %d after %d body bytes (%v); want 400 within %d",
				c.name, Status(err), body.n, err, len(head)+codecChunk)
		}

		body = &endless{fill: "\x00"}
		r = httptest.NewRequest(http.MethodPost, "/transform?"+c.shape.shapeQuery(), body)
		r.Header.Set("Content-Type", binaryType)
		r.ContentLength = -1
		_, err = ReadRequest(httptest.NewRecorder(), r)
		if Status(err) != http.StatusBadRequest || body.n != 0 {
			t.Errorf("%s, binary: status %d after %d body bytes (%v); want 400 before the body",
				c.name, Status(err), body.n, err)
		}
	}
}

func TestShapeQueryRoundTrip(t *testing.T) {
	for _, s := range []Shape{
		{Rank: 1, Dims: [3]int{4096}},
		{Rank: 2, Dims: [3]int{256, 128}, Inverse: true},
		{Rank: 3, Dims: [3]int{8, 16, 32}, Real: true, Sharded: true, Inverse: true},
	} {
		req, err := NewBinaryRequest("http://x", s, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseShapeQuery(req.URL.Query())
		if err != nil || got != s {
			t.Errorf("%+v → %q → %+v, %v", s, req.URL.RawQuery, got, err)
		}
	}
}

func TestWriteResponseNonFinite(t *testing.T) {
	res := Result{Dst: []complex128{1, complex(0, math.Inf(-1))}}
	rec := httptest.NewRecorder()
	n, err := WriteResponse(rec, JSON, res)
	var nf *NonFiniteError
	if n != 0 || !errors.As(err, &nf) || nf.Index != 3 || rec.Body.Len() != 0 {
		t.Fatalf("JSON: wrote %d bytes, err %v; want nothing written and NonFiniteError at 3", n, err)
	}
	if Status(err) != http.StatusUnprocessableEntity {
		t.Errorf("status %d, want 422", Status(err))
	}
	rec = httptest.NewRecorder()
	if n, err := WriteResponse(rec, Binary, res); err != nil || n != 32 {
		t.Fatalf("binary: wrote %d bytes, err %v", n, err)
	}
	if err := CheckCRC(rec.Header(), rec.Body.Bytes()); err != nil {
		t.Error(err)
	}
	if !bytes.Equal(rec.Body.Bytes(), ComplexBytes(res.Dst)) {
		t.Error("binary reply is not the result's bytes")
	}
}
