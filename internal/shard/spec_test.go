package shard

import (
	"bytes"
	"encoding/json"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/wire"
)

// beginSpecs are /shard/begin bodies a worker must answer with a status, not
// a dropped connection: every one is checked before a plan key is built.
var beginSpecs = []struct {
	name, body string
	status     int
}{
	// "radix" is no longer a spec member: it decodes as unknown and the plan
	// is the default chain (it used to reach a panicking radix check).
	{"radix 3", `{"job":"a","k":8,"n":8,"m":8,"mu":4,"radix":3,"index":0,"workers":["x"]}`, http.StatusOK},
	// k·n·m overflows int (it used to divide by zero in the graph builder).
	{"overflowing cube", `{"job":"b","k":4294967296,"n":4294967296,"m":8,"mu":4,"index":0,"workers":["x"]}`, http.StatusBadRequest},
	// Representable but past the /transform cap: refused before any slab is sized.
	{"cube over MaxElems", `{"job":"c","k":1024,"n":1024,"m":1024,"mu":4,"index":0,"workers":["x"]}`, http.StatusBadRequest},
	{"mu does not divide m", `{"job":"d","k":8,"n":8,"m":8,"mu":3,"index":0,"workers":["x"]}`, http.StatusBadRequest},
	{"k = 0", `{"job":"e","k":0,"n":8,"m":8,"mu":4,"index":0,"workers":["x"]}`, http.StatusBadRequest},
	{"index out of range", `{"job":"f","k":8,"n":8,"m":8,"mu":4,"index":1,"workers":["x"]}`, http.StatusBadRequest},
	{"chunk past the cube cap", `{"job":"g","k":8,"n":8,"m":8,"mu":4,"index":0,"workers":["x"],"chunk_elems":9223372036854775807}`, http.StatusBadRequest},
}

func TestBeginAnswersHostileSpecs(t *testing.T) {
	w := NewWorker(WorkerOptions{})
	defer w.Close()
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	for _, c := range beginSpecs {
		resp, err := http.Post(srv.URL+"/shard/begin", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatalf("%s: transport error %v, want HTTP %d", c.name, err, c.status)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s: HTTP %d (%s), want %d", c.name, resp.StatusCode, strings.TrimSpace(string(msg)), c.status)
		}
	}
	if resp, err := http.Post(srv.URL+"/shard/end?job=a", "", nil); err == nil {
		resp.Body.Close()
	}
}

// A chunk or result span whose off+count wraps int must be refused like any
// other out-of-range span, not reach a slice (it used to panic in the
// handler, and the client saw EOF instead of a 400).
func TestChunkSpansDoNotOverflow(t *testing.T) {
	w := NewWorker(WorkerOptions{})
	defer w.Close()
	srv := httptest.NewServer(w.Handler())
	defer srv.Close()
	do := func(method, path string, payload []byte) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		wire.SetCRC(req.Header, payload)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, err.Error()
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, strings.TrimSpace(string(msg))
	}
	mustOK := func(method, path string, payload []byte) {
		t.Helper()
		if status, msg := do(method, path, payload); status != http.StatusOK {
			t.Fatalf("%s %s: HTTP %d (%s)", method, path, status, msg)
		}
	}
	// Job "run" has one shard and runs to completion, so its result is
	// readable; job "two" is the first of two shards, so it takes exchange
	// chunks from shard 1.
	mustOK(http.MethodPost, "/shard/begin", []byte(`{"job":"run","k":8,"n":8,"m":8,"mu":4,"index":0,"workers":["x"]}`))
	mustOK(http.MethodPost, "/shard/begin", []byte(`{"job":"two","k":8,"n":8,"m":8,"mu":4,"index":0,"workers":["x","y"]}`))
	defer do(http.MethodPost, "/shard/end?job=run", nil)
	defer do(http.MethodPost, "/shard/end?job=two", nil)
	mustOK(http.MethodPost, "/shard/chunk?job=run&kind=input&off=0&count=512", wire.ComplexBytes(randCube(512, 1)))
	mustOK(http.MethodPost, "/shard/run?job=run&sign=-1", nil)

	const huge = "4611686018427387904" // 2⁶²: off+count wraps to a negative int
	for _, c := range []struct{ name, method, path string }{
		{"input chunk", http.MethodPost, "/shard/chunk?job=two&kind=input&off=" + huge + "&count=" + huge},
		{"exchange chunk", http.MethodPost, "/shard/chunk?job=two&kind=exchange&from=1&off=" + huge + "&count=" + huge},
		{"result", http.MethodGet, "/shard/result?job=run&off=" + huge + "&count=" + huge},
	} {
		if status, msg := do(c.method, c.path, make([]byte, 16)); status != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d (%s), want %d", c.name, status, msg, http.StatusBadRequest)
		}
	}
}

// FuzzJobSpec feeds the /shard/begin decoder and validate arbitrary bytes:
// nothing may panic, and a spec validate accepts is a cube core's shape
// rule accepts at wire.MaxElems, has a geometry newGeom accepts, is at most
// wire.MaxElems elements by exact arithmetic, and its slabs tile it exactly
// — no product along the way overflowed.
func FuzzJobSpec(f *testing.F) {
	for _, c := range beginSpecs {
		f.Add([]byte(c.body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil || spec.validate() != nil {
			return
		}
		if err := core.ShapeOf(false, spec.K, spec.N, spec.M).Check(wire.MaxElems); err != nil {
			t.Fatalf("validate accepted %+v, core's shape rule refuses it: %v", spec, err)
		}
		sk := len(spec.Workers)
		g, err := newGeom(spec.K, spec.N, spec.M, sk, spec.Mu)
		if err != nil {
			t.Fatalf("validate accepted %+v, newGeom refuses it: %v", spec, err)
		}
		cube := new(big.Int).Mul(big.NewInt(int64(spec.K)), big.NewInt(int64(spec.N)))
		cube.Mul(cube, big.NewInt(int64(spec.M)))
		if cube.Cmp(big.NewInt(wire.MaxElems)) > 0 {
			t.Fatalf("validate accepted a %s cube of %v elements", spec.Shape(), cube)
		}
		if slab := g.slabElems(); slab < 1 || int64(slab)*int64(sk) != cube.Int64() {
			t.Fatalf("%s over %d shards: slab %d does not tile the %v-element cube", spec.Shape(), sk, slab, cube)
		}
	})
}
