package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

const (
	httpN    = 256 // 256×256 complex: ~2.5 MB of JSON each way around a sub-millisecond FFT
	httpPool = 4
	// httpClients is one keep-alive connection: the client and the daemon
	// are two processes taking turns, which is all this host's two vCPUs run
	// at once. A second connection only queues at the daemon (p50 doubled,
	// req/s unchanged, when it was tried).
	httpClients = 1
	// flightBatch traced ops between /debug/flightrec fetches. The daemon's
	// default ring keeps 64 requests; a client interleaves one control op
	// per traced op, so 8 traced ops ≈ 16 ring entries.
	flightBatch = 8
)

// wireRequest and wireResponse mirror cmd/fftserved's JSON bodies (a main
// package cannot be imported): interleaved re,im pairs.
type wireRequest struct {
	Rank    int       `json:"rank"`
	Dims    []int     `json:"dims"`
	Inverse bool      `json:"inverse"`
	Data    []float64 `json:"data"`
}

type wireResponse struct {
	Data []float64 `json:"data"`
}

// pendingDo is a traced roundtrip waiting for the server's own duration.
type pendingDo struct {
	span, op int
	traceID  string
}

// http2dWL builds cmd/fftserved, starts it with defaults on a free loopback
// port and POSTs /transform over a keep-alive connection. The wire codec is
// nearly all of the request; serve and the FFT are bystanders.
type http2dWL struct {
	root string
	seed int64
	t    *xform
	bin  string

	in      [][]complex128
	want    [][]complex128
	bodies  [][]byte
	respLen []int

	cmd     *exec.Cmd
	exited  chan error
	base    string
	conn    [httpClients]*http.Client
	side    *http.Client // verification and flight-recorder fetches, off the op connections
	pending [httpClients][]pendingDo
}

func (w *http2dWL) ref() *xform         { return w.t }
func (w *http2dWL) clients() int        { return httpClients }
func (w *http2dWL) setupReps() int      { return 5 }
func (w *http2dWL) bytesPerOp() float64 { return 2 * 16 * httpN * httpN } // payload in + out, as binary
func (w *http2dWL) peakRSSMiB() float64 { return vmHWMMiB(w.cmd.Process.Pid) }

func (w *http2dWL) prepare(seed int64) error {
	w.seed = seed
	w.bin = filepath.Join(outDir(w.root), "bin", "fftserved")
	build := exec.Command("go", "build", "-o", w.bin, "./cmd/fftserved")
	build.Dir = w.root
	if out, err := build.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/fftserved: %v\n%s", err, out)
	}
	w.t = newXform(shape{"c2d", [3]int{1, httpN, httpN}}, seed)
	w.in = make([][]complex128, httpPool)
	w.want = make([][]complex128, httpPool)
	w.bodies = make([][]byte, httpPool)
	w.respLen = make([]int, httpPool)
	for i := range w.in {
		w.in[i] = make([]complex128, httpN*httpN)
		fillComplex(w.in[i], seed, 200+uint64(i))
		if i == 0 {
			w.in[i] = w.t.x
		}
		w.want[i] = make([]complex128, httpN*httpN)
		body, err := encodeRequest(w.in[i])
		if err != nil {
			return err
		}
		w.bodies[i] = body
	}
	w.side = &http.Client{Timeout: 30 * time.Second}
	return nil
}

func encodeRequest(x []complex128) ([]byte, error) {
	data := make([]float64, 2*len(x))
	for i, v := range x {
		data[2*i], data[2*i+1] = real(v), imag(v)
	}
	return json.Marshal(wireRequest{Rank: 2, Dims: []int{httpN, httpN}, Data: data})
}

// decodeResponse parses a response body and compares it bitwise with want.
func decodeResponse(body []byte, want []complex128) error {
	var r wireResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return err
	}
	if len(r.Data) != 2*len(want) {
		return fmt.Errorf("response has %d values, want %d", len(r.Data), 2*len(want))
	}
	for i, v := range want {
		if r.Data[2*i] != real(v) || r.Data[2*i+1] != imag(v) {
			return fmt.Errorf("response differs from the in-process plan at element %d", i)
		}
	}
	return nil
}

// post sends one pre-encoded body and returns the response body and its
// X-Trace-Id; a non-200 status is an error.
func post(c *http.Client, url string, body []byte) ([]byte, string, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, "", fmt.Errorf("status %d: %.200s", resp.StatusCode, data)
	}
	return data, resp.Header.Get("X-Trace-Id"), nil
}

func (w *http2dWL) setup() (time.Duration, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	addr := ln.Addr().String()
	ln.Close()
	w.base = "http://" + addr
	for c := range w.conn {
		w.conn[c] = &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1},
			Timeout:   30 * time.Second,
		}
	}

	t0 := time.Now()
	// Only -addr and -loglevel: every other flag keeps the default a user
	// gets (including the start-up STREAM measurement). The daemon inherits
	// this process's GOMAXPROCS through the environment (leaveOneCPU).
	w.cmd = exec.Command(w.bin, "-addr", addr, "-loglevel", "error")
	var stderr bytes.Buffer
	w.cmd.Stderr = &stderr
	if err := w.cmd.Start(); err != nil {
		return 0, err
	}
	w.exited = make(chan error, 1)
	go func(cmd *exec.Cmd, done chan<- error) { done <- cmd.Wait() }(w.cmd, w.exited)
	for ready := false; !ready; {
		select {
		case err := <-w.exited:
			w.exited <- err
			return 0, fmt.Errorf("fftserved exited during start-up: %v\n%s", err, stderr.String())
		default:
		}
		if time.Since(t0) > 20*time.Second {
			return 0, fmt.Errorf("fftserved not healthy after 20 s\n%s", stderr.String())
		}
		if resp, err := w.conn[0].Get(w.base + "/healthz"); err == nil {
			resp.Body.Close()
			ready = resp.StatusCode == http.StatusOK
		}
		if !ready {
			time.Sleep(2 * time.Millisecond)
		}
	}
	first, _, err := post(w.conn[0], w.base+"/transform", w.bodies[0])
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)

	// Off the clock: reference plan, expected outputs, and one fully
	// decoded response per pool input, whose exact length then stands for
	// the responses the loop does not decode.
	w.t.close()
	if _, err := w.t.firstRoundTrip(w.seed); err != nil {
		return d, fmt.Errorf("reference plan: %w", err)
	}
	for i := range w.in {
		if err := w.t.forwardOf(w.want[i], w.in[i]); err != nil {
			return d, err
		}
		body := first
		if i > 0 {
			if body, _, err = post(w.side, w.base+"/transform", w.bodies[i]); err != nil {
				return d, err
			}
		}
		if err := decodeResponse(body, w.want[i]); err != nil {
			return d, fmt.Errorf("pool input %d: %w", i, err)
		}
		w.respLen[i] = len(body)
	}
	return d, nil
}

func (w *http2dWL) op(c, n int, rec *recorder) (time.Duration, error) {
	hop := rec.begin("op", -1, n)
	d, err := w.call(c, n, rec, hop)
	rec.end(hop)
	if rec != nil && len(w.pending[c]) >= flightBatch {
		w.fetchFlight(c, rec) // after the op span has closed: not part of the op
	}
	return d, err
}

func (w *http2dWL) call(c, n int, rec *recorder, hop int) (time.Duration, error) {
	idx := (n*w.clients() + c) % httpPool
	body := w.bodies[idx]
	if rec != nil {
		// A traced op pays the client codec inside the op span so the
		// trace shows the whole cost of a JSON call; the op's latency
		// sample stays the roundtrip, as in untraced ops.
		h := rec.begin("encode", hop, n)
		var err error
		body, err = encodeRequest(w.in[idx])
		rec.end(h)
		if err != nil {
			return 0, err
		}
	}
	h := rec.begin("roundtrip", hop, n)
	t0 := time.Now()
	resp, traceID, err := post(w.conn[c], w.base+"/transform", body)
	d := time.Since(t0)
	rec.end(h)
	if err != nil {
		return d, err
	}
	switch {
	case rec != nil:
		hd := rec.begin("decode", hop, n)
		err = decodeResponse(resp, w.want[idx])
		rec.end(hd)
		w.pending[c] = append(w.pending[c], pendingDo{span: h, op: n, traceID: traceID})
	case n%verifyEvery == 0:
		err = decodeResponse(resp, w.want[idx])
	case len(resp) != w.respLen[idx]:
		err = fmt.Errorf("response to input %d is %d bytes, want %d", idx, len(resp), w.respLen[idx])
	}
	return d, err
}

// fetchFlight reads the daemon's flight recorder and nests each pending
// roundtrip's server-side duration inside it as a `do` span; what is left
// of the roundtrip is wire time (decode + encode + socket).
func (w *http2dWL) fetchFlight(c int, rec *recorder) {
	resp, err := w.side.Get(w.base + "/debug/flightrec")
	if err != nil {
		return
	}
	defer resp.Body.Close()
	var fr struct {
		Entries []struct {
			TraceID  string    `json:"trace_id"`
			Time     time.Time `json:"time"`
			Duration int64     `json:"duration_ns"`
		} `json:"entries"`
	}
	if json.NewDecoder(resp.Body).Decode(&fr) != nil {
		return
	}
	for _, p := range w.pending[c] {
		for _, e := range fr.Entries {
			if e.TraceID == p.traceID {
				start := int64(e.Time.Sub(rec.origin))
				rec.add("do", p.span, p.op, start, start+e.Duration)
				break
			}
		}
	}
	w.pending[c] = w.pending[c][:0]
}

func (w *http2dWL) teardown() {
	if w.cmd != nil {
		_ = w.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-w.exited:
		case <-time.After(10 * time.Second):
			_ = w.cmd.Process.Kill()
			<-w.exited
		}
		w.cmd = nil
	}
	for _, c := range w.conn {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	w.t.close()
}

// layers reads the fftserved family off a traced pass.
func (w *http2dWL) layers(m metrics, p *pass) {
	for c, rec := range p.recs {
		w.fetchFlight(c, rec)
	}
	m["fftserved.roundtrip_ms_p50"] = median(spanDurations(p.recs, "roundtrip"))
	m["fftserved.do_ms_p50"] = median(spanDurations(p.recs, "do"))
	m["client.encode_ms_p50"] = median(spanDurations(p.recs, "encode"))
	m["client.decode_ms_p50"] = median(spanDurations(p.recs, "decode"))
	m["fftserved.req_bytes"] = float64(len(w.bodies[0]))
	m["fftserved.resp_bytes"] = float64(w.respLen[0])

	// Wire time is the roundtrip's self time, over roundtrips the flight
	// recorder still held when fetched.
	var wire []float64
	var wireSum, rtSum float64
	for _, rec := range p.recs {
		matched := map[int]bool{}
		for _, s := range rec.spans {
			if s.Name == "do" {
				matched[s.Parent] = true
			}
		}
		self := selfTimes(rec.spans)
		for i, s := range rec.spans {
			if s.Name == "roundtrip" && matched[i] {
				wire = append(wire, float64(self[i])/1e6)
				wireSum += float64(self[i])
				rtSum += float64(s.dur())
			}
		}
	}
	m["fftserved.wire_ms_p50"] = median(wire)
	m["fftserved.wire_share"] = ratio(wireSum, rtSum)

	// The op span must close: what encode, roundtrip and decode do not
	// cover is time the trace cannot attribute.
	var opSum, opSelf float64
	for _, rec := range p.recs {
		self := selfTimes(rec.spans)
		for i, s := range rec.spans {
			if s.Name == "op" {
				opSum += float64(s.dur())
				opSelf += float64(self[i])
			}
		}
	}
	fmt.Printf("note: http2d matched %d of %d traced roundtrips in /debug/flightrec; encode+roundtrip+decode cover %.2f%% of the op spans\n",
		len(wire), len(spanDurations(p.recs, "roundtrip")), 100*(1-ratio(opSelf, opSum)))
}
