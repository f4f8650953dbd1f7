package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/wire"
)

// transformHandler is cmd/fftserved's /transform reduced to the wire: read
// a request in either framing, run it through the serving layer, write the
// reply (a main package cannot be imported; the codecs, limits and
// negotiation are all internal/wire's).
func transformHandler(s *serve.Server) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		x, err := wire.ReadRequest(w, r)
		if err != nil {
			http.Error(w, err.Error(), wire.Status(err))
			return
		}
		res := x.NewResult()
		err = s.Do(r.Context(), serve.Request{
			Rank: x.Rank, Dims: x.Dims, Inverse: x.Inverse, Real: x.Real,
			Src: x.Src, RealSrc: x.RealSrc, Dst: res.Dst, RealDst: res.RealDst,
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		if n, err := wire.WriteResponse(w, x.Reply, res); err != nil && n == 0 {
			http.Error(w, err.Error(), wire.Status(err))
		}
	}
}

// httpEntries measures POST /transform end to end over an httptest
// loopback server: one keep-alive client posts a complex 256×256 operand
// in the JSON and in the binary framing and reads the whole reply, as
// benchmark/'s http2d does against the real daemon. ReqPerS is the best of
// three timed batches per framing, interleaved; WireBytesPerOp is request
// plus response body bytes. Before timing, the binary reply is checked
// bitwise against the values the JSON reply decodes to.
func httpEntries() ([]JSONEntry, error) {
	const n = 256
	cfg := core.Default()
	cfg.DataWorkers, cfg.ComputeWorkers, cfg.Workers = 1, 1, 2
	s := serve.New(serve.Options{Config: cfg})
	srv := httptest.NewServer(transformHandler(s))
	defer func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx) // nothing in flight: the client loop is closed
	}()

	shape := wire.Shape{Rank: 2, Dims: [3]int{n, n}}
	data := make([]float64, 2*n*n)
	for i := range data {
		data[i] = math.Sin(float64(i+1) * 0.7)
	}
	jsonBody, err := json.Marshal(struct {
		Rank int       `json:"rank"`
		Dims []int     `json:"dims"`
		Data []float64 `json:"data"`
	}{2, []int{n, n}, data})
	if err != nil {
		return nil, err
	}

	newRequest := map[bool]func() (*http.Request, error){
		false: func() (*http.Request, error) {
			return http.NewRequest(http.MethodPost, srv.URL+"/transform", bytes.NewReader(jsonBody))
		},
		true: func() (*http.Request, error) { return wire.NewBinaryRequest(srv.URL, shape, data) },
	}
	post := func(bin bool) (*http.Response, error) {
		req, err := newRequest[bin]()
		if err != nil {
			return nil, err
		}
		resp, err := srv.Client().Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
			resp.Body.Close()
			return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
		}
		return resp, nil
	}

	// One checked exchange per framing: also the warm-up (plan build).
	resp, err := post(false)
	if err != nil {
		return nil, fmt.Errorf("bench http json: %w", err)
	}
	var jresp struct {
		Data []float64 `json:"data"`
	}
	jsonReply, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err == nil {
		err = json.Unmarshal(jsonReply, &jresp)
	}
	if err != nil {
		return nil, fmt.Errorf("bench http json: %w", err)
	}
	resp, err = post(true)
	if err != nil {
		return nil, fmt.Errorf("bench http bin: %w", err)
	}
	words, err := wire.ReadBinaryResponse(resp)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("bench http bin: %w", err)
	}
	if len(words) != len(jresp.Data) {
		return nil, fmt.Errorf("bench http: binary reply has %d values, JSON %d", len(words), len(jresp.Data))
	}
	for i := range words {
		if math.Float64bits(words[i]) != math.Float64bits(jresp.Data[i]) {
			return nil, fmt.Errorf("bench http: value %d differs between framings: %v vs %v", i, words[i], jresp.Data[i])
		}
	}

	rate := func(bin bool, ops int) (float64, error) {
		start := time.Now()
		for i := 0; i < ops; i++ {
			resp, err := post(bin)
			if err != nil {
				return 0, err
			}
			_, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil {
				return 0, err
			}
		}
		return float64(ops) / time.Since(start).Seconds(), nil
	}
	var jsonRate, binRate float64
	for trial := 0; trial < 3; trial++ {
		j, err := rate(false, 10)
		if err != nil {
			return nil, fmt.Errorf("bench http json: %w", err)
		}
		b, err := rate(true, 100)
		if err != nil {
			return nil, fmt.Errorf("bench http bin: %w", err)
		}
		jsonRate, binRate = max(jsonRate, j), max(binRate, b)
	}
	entry := func(codec string, reqPerS float64, wireBytes int) JSONEntry {
		return JSONEntry{
			Name:           fmt.Sprintf("http/transform/%s/%dx%d", codec, n, n),
			NsPerOp:        1e9 / reqPerS,
			ReqPerS:        reqPerS,
			WireBytesPerOp: float64(wireBytes),
		}
	}
	return []JSONEntry{
		entry("json", jsonRate, len(jsonBody)+len(jsonReply)),
		entry("bin", binRate, 2*8*len(data)),
	}, nil
}
